package udpnet

import "syscall"

// ipMulticastAll is Linux's IP_MULTICAST_ALL (include/uapi/linux/in.h),
// which package syscall does not name. It defaults to 1: a socket bound
// to INADDR_ANY receives the datagrams of every group any socket on the
// host has joined, not just its own.
const ipMulticastAll = 49

// hearOnlyJoined makes the socket receive only the groups it joined
// itself, so a datagram for another group dies in the kernel, as it dies
// at a NIC's address filter.
func hearOnlyJoined(fd uintptr) error {
	return syscall.SetsockoptInt(int(fd), syscall.IPPROTO_IP, ipMulticastAll, 0)
}
