//go:build !unix && !windows

package udpnet

import "errors"

// setMulticastIf has no socket option to set here: no interface can be
// pinned, and FindPath falls through to the kernel's default.
func setMulticastIf(fd uintptr, ip [4]byte) error { return errors.ErrUnsupported }
