package udpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"time"
)

// Path is the way a world's multicast datagrams travel: the interface
// every rank's sending socket is pinned to and every membership is taken
// on, found by sending a datagram around it (FindPath), not by reading
// interface flags.
type Path struct {
	// Interface names the interface; "" is the kernel's default for the
	// group (no interface could be pinned).
	Interface string
	// Loopback reports that group traffic never leaves the host.
	Loopback bool
	// GroupFilter reports that a socket hears only the groups it joined
	// (Linux IP_MULTICAST_ALL=0). Without it every socket bound to the
	// multicast port hears every group any socket on the host joined, and
	// the endpoint drops the foreign traffic itself.
	GroupFilter bool

	ifc *net.Interface // nil: the kernel's default
	src [4]byte        // ifc's IPv4 address, what IP_MULTICAST_IF names it by
}

// name is the interface's name, or what stands in for one.
func (p Path) name() string {
	if p.Interface == "" {
		return "the kernel's default interface"
	}
	return p.Interface
}

func (p Path) String() string {
	s := p.name()
	switch {
	case p.Loopback:
		s += " (loopback: datagrams stay on this host)"
	case p.Interface != "":
		s += " (not a loopback: datagrams cross a NIC)"
	}
	if p.GroupFilter {
		return s + ", a socket hears only the groups it joined"
	}
	return s + ", every socket hears every group on its port"
}

// probeGroup is where FindPath sends its datagram, clear of the port and
// the groups real worlds use, and below the ephemeral range like them
// (see DefaultMcastPort).
var probeGroup = netip.AddrPortFrom(netip.AddrFrom4([4]byte{239, 77, 255, 250}), 29988)

// FindPath returns the first candidate path a datagram actually makes
// the round trip on: the loopback interface if it is up (its MULTICAST
// flag is not required — containers routinely bring lo up without it,
// and a membership on it plus a pinned sender works all the same), then
// the other up, multicast-flagged interfaces, then the kernel's default.
// The error says what went wrong on each.
func FindPath() (Path, error) {
	var errs []error
	for _, p := range candidatePaths() {
		filtered, err := p.roundTrip()
		if err == nil {
			p.GroupFilter = filtered
			return p, nil
		}
		errs = append(errs, fmt.Errorf("%s: %w", p.name(), err))
	}
	return Path{}, fmt.Errorf("udpnet: no multicast path works here: %w", errors.Join(errs...))
}

// Probe reports whether IP multicast works here, as FindPath's error:
// the path a world uses is the one FindPath tested, so a nil Probe means
// New will find a working path too. Callers (tests, examples) skip
// multicast paths when it returns an error.
func Probe() error {
	_, err := FindPath()
	return err
}

// candidatePaths lists the paths FindPath tries, in order. An interface
// without an IPv4 address cannot be named to IP_MULTICAST_IF and is left
// out.
func candidatePaths() []Path {
	var loop, rest []Path
	ifs, _ := net.Interfaces() // none listed: the kernel's default is still tried
	for i := range ifs {
		ifc := &ifs[i]
		isLoop := ifc.Flags&net.FlagLoopback != 0
		if ifc.Flags&net.FlagUp == 0 || !isLoop && ifc.Flags&net.FlagMulticast == 0 {
			continue
		}
		addrs, _ := ifc.Addrs()
		for _, a := range addrs {
			ipn, ok := a.(*net.IPNet)
			if !ok || ipn.IP.To4() == nil {
				continue
			}
			p := Path{Interface: ifc.Name, Loopback: isLoop, ifc: ifc, src: [4]byte(ipn.IP.To4())}
			if isLoop {
				loop = append(loop, p)
			} else {
				rest = append(rest, p)
			}
			break
		}
	}
	return append(append(loop, rest...), Path{})
}

// roundTrip joins the probe group on p, multicasts a nonce from a sender
// pinned to p and waits for it to come back; it also reports whether the
// group filter took. The nonce tells this call's datagram from one a
// concurrent prober (another process, another test binary) sent to the
// same group and port.
func (p Path) roundTrip() (filtered bool, err error) {
	recv, filtered, err := p.listen(probeGroup)
	if err != nil {
		return false, err
	}
	defer recv.Close()
	send, err := p.sender()
	if err != nil {
		return false, err
	}
	defer send.Close()
	nonce := binary.BigEndian.AppendUint64([]byte("mcast-probe "), rand.Uint64())
	if _, err := send.WriteToUDPAddrPort(nonce, probeGroup); err != nil {
		return false, fmt.Errorf("probe send (no multicast route?): %w", err)
	}
	_ = recv.SetReadDeadline(time.Now().Add(500 * time.Millisecond)) // a UDPConn takes deadlines
	buf := make([]byte, 64)
	for {
		n, _, err := recv.ReadFromUDPAddrPort(buf)
		if err != nil {
			return false, fmt.Errorf("probe datagram did not come back: %w", err)
		}
		if string(buf[:n]) == string(nonce) {
			return filtered, nil
		}
	}
}

// sender opens a socket whose multicast leaves on p. It is bound to
// INADDR_ANY so the kernel stamps each datagram with the source address
// of the interface it leaves on (p's for multicast, 127.0.0.1 toward the
// loopback peers).
func (p Path) sender() (*net.UDPConn, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{})
	if err != nil {
		return nil, err
	}
	if p.ifc != nil {
		if err := control(conn, func(fd uintptr) error { return setMulticastIf(fd, p.src) }); err != nil {
			conn.Close()
			return nil, fmt.Errorf("pinning multicast to %s: %w", p.Interface, err)
		}
	}
	return conn, nil
}

// listen opens a socket that is a member of group on p
// (net.ListenMulticastUDP performs the IGMP join and binds the group's
// port on every address) and asks the kernel to hand it that group's
// datagrams only, reporting whether the kernel agreed.
func (p Path) listen(group netip.AddrPort) (conn *net.UDPConn, filtered bool, err error) {
	conn, err = net.ListenMulticastUDP("udp4", p.ifc, net.UDPAddrFromAddrPort(group))
	if err != nil {
		return nil, false, fmt.Errorf("joining group %v: %w", group, err)
	}
	return conn, control(conn, hearOnlyJoined) == nil, nil
}

// control runs fn on conn's descriptor.
func control(conn *net.UDPConn, fn func(fd uintptr) error) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var ferr error
	if err := rc.Control(func(fd uintptr) { ferr = fn(fd) }); err != nil {
		return err
	}
	return ferr
}
