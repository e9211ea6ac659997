package udpnet

import "syscall"

// setMulticastIf makes the socket's outgoing multicast leave on the
// interface that owns ip.
func setMulticastIf(fd uintptr, ip [4]byte) error {
	return syscall.SetsockoptInet4Addr(syscall.Handle(fd), syscall.IPPROTO_IP, syscall.IP_MULTICAST_IF, ip)
}
