//go:build !linux

package udpnet

import "errors"

// hearOnlyJoined has no IP_MULTICAST_ALL to clear outside Linux: a
// socket may hear groups it never joined, and the endpoint's own-copy
// filter and the runtime's staleness checks drop what it should not
// have heard.
func hearOnlyJoined(fd uintptr) error { return errors.ErrUnsupported }
