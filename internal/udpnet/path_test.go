package udpnet_test

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/coretest"
	"repro/internal/mpi"
	"repro/internal/transport"
	"repro/internal/udpnet"
)

// loopbackUp reports whether the host has a loopback interface that is up.
func loopbackUp() bool {
	ifs, _ := net.Interfaces()
	for _, ifc := range ifs {
		if ifc.Flags&net.FlagLoopback != 0 && ifc.Flags&net.FlagUp != 0 {
			return true
		}
	}
	return false
}

// TestMulticastPathOnLinux: the other tests skip where Probe fails, which
// is right on a system this package cannot vouch for and hid a broken
// path on the one it can. On Linux with a loopback interface up,
// multicast must work, over that interface, with the group filter on.
func TestMulticastPathOnLinux(t *testing.T) {
	if runtime.GOOS != "linux" || !loopbackUp() {
		t.Skipf("%s, loopback up: %v — no path this package promises", runtime.GOOS, loopbackUp())
	}
	path, err := udpnet.FindPath() // Probe is this call's error
	if err != nil {
		t.Fatalf("IP multicast must work on Linux with a loopback interface up: %v", err)
	}
	if !path.Loopback || !path.GroupFilter {
		t.Fatalf("path is %v; want the loopback interface with the group filter on", path)
	}
	nw, err := udpnet.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if nw.Path().String() != path.String() {
		t.Fatalf("the world uses %v, the probe tested %v", nw.Path(), path)
	}
}

// TestConcurrentProbes: probers share one group and port, across
// processes too (go test runs this package, benchmark and the root smoke
// test side by side), so each hears the others' datagrams and must be
// satisfied only by its own.
func TestConcurrentProbes(t *testing.T) {
	requireMulticast(t)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = udpnet.Probe()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// requireGroupFilter skips where a socket cannot be told to hear only
// the groups it joined — except on Linux, where that is a failure.
func requireGroupFilter(t *testing.T, nw *udpnet.Net) {
	t.Helper()
	if nw.Path().GroupFilter {
		return
	}
	if runtime.GOOS == "linux" {
		t.Fatalf("no group filter on Linux: path is %v", nw.Path())
	}
	t.Skipf("no group filter on %s: sockets hear every group on their port", runtime.GOOS)
}

// TestSocketHearsOnlyItsGroups is fig 18 on real sockets. Every rank
// multicasts one 3-fragment message to its right neighbour's slice group
// and one to the whole group. An endpoint delivers the one slice
// addressed to it and the three whole-group messages of the others, and
// hears its own whole-group fragments once each — not the two slices
// addressed to other ranks, and nothing twice because it holds two group
// sockets on one port.
func TestSocketHearsOnlyItsGroups(t *testing.T) {
	requireMulticast(t)
	const (
		n   = 4
		ctx = 7
	)
	nw, err := udpnet.New(testConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	requireGroupFilter(t, nw)
	payload := bytes.Repeat([]byte{0xA5}, 3*nw.Endpoint(0).MaxFragPayload()-10)
	for r := 0; r < n; r++ {
		for _, g := range []uint32{ctx, transport.SliceGroup(ctx, r)} {
			if err := nw.Endpoint(r).Join(g); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Two gated rounds, as the collectives run them: a sender's next
	// multicast starts after its previous one was consumed (the
	// reassembler's completed-multicast watermark rests on that).
	recvAll := func(r int, want map[int32]bool) {
		t.Helper()
		for len(want) > 0 {
			m, ok, err := nw.Endpoint(r).RecvTimeout(int64(2 * time.Second))
			if err != nil || !ok {
				t.Fatalf("rank %d: still waiting for tags %v (ok=%v err=%v)", r, want, ok, err)
			}
			if !want[m.Tag] || !bytes.Equal(m.Payload, payload) {
				t.Fatalf("rank %d delivered tag %d (%d bytes), which was not addressed to it (waiting for %v)", r, m.Tag, len(m.Payload), want)
			}
			delete(want, m.Tag)
		}
	}
	for r := 0; r < n; r++ {
		if err := nw.Endpoint(r).Multicast(transport.SliceGroup(ctx, (r+1)%n), transport.Message{Tag: int32(100 + r), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < n; r++ {
		recvAll(r, map[int32]bool{int32(100 + (r+n-1)%n): true})
	}
	for r := 0; r < n; r++ {
		if err := nw.Endpoint(r).Multicast(ctx, transport.Message{Tag: int32(200 + r), Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < n; r++ {
		want := map[int32]bool{}
		for o := 0; o < n; o++ {
			if o != r {
				want[int32(200+o)] = true
			}
		}
		recvAll(r, want)
	}
	// Every send returned before these checks, so what a socket should not
	// have heard is in its buffer by now. Give the read loops a moment to
	// hand on anything further, then count.
	for r := 0; r < n; r++ {
		ep := nw.Endpoint(r)
		for deadline := time.Now().Add(2 * time.Second); ep.Stats().OwnMulticast < 3 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if m, ok, _ := ep.RecvTimeout(int64(50 * time.Millisecond)); ok {
			t.Errorf("rank %d delivered a fifth message, tag %d", r, m.Tag)
		}
		st := ep.Stats()
		if st.DatagramsReceived != 4 {
			t.Errorf("rank %d reassembled %d messages, want 1 slice + 3 whole-group", r, st.DatagramsReceived)
		}
		if st.OwnMulticast != 3 {
			t.Errorf("rank %d heard %d of its own fragments, want the 3 of its whole-group send once each", r, st.OwnMulticast)
		}
	}
}

// TestNoForeignSliceReachesTheRuntime: the conformance program ends with
// a sliced alltoall. Where sockets hear every group, the slices
// addressed to other ranks are reassembled, matched against nothing and
// left in the unexpected queue until a later receive finds them stale;
// with the group filter they never arrive.
func TestNoForeignSliceReachesTheRuntime(t *testing.T) {
	requireMulticast(t)
	failOnHang(t, 30*time.Second)
	nw, err := udpnet.New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	requireGroupFilter(t, nw)
	eps := make([]transport.Endpoint, nw.Size())
	for i := range eps {
		eps[i] = nw.Endpoint(i)
	}
	// One pass per world: a rank that finishes early and starts another
	// would put its next scout, expected or not, in a slower rank's queue.
	depths := make([]int, nw.Size())
	err = mpi.RunEndpoints(eps, core.Algorithms(core.Binary), func(c *mpi.Comm) error {
		err := coretest.Conformance(c, 3000, 1)
		depths[c.Rank()] = c.Runtime().UnexpectedDepth()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, d := range depths {
		if d != 0 {
			t.Errorf("rank %d ends with %d messages in its unexpected queue", r, d)
		}
	}
}

// nonLoopbackTX sums the transmitted-packet counters of every
// non-loopback row of /proc/net/dev.
func nonLoopbackTX() (uint64, error) {
	f, err := os.Open("/proc/net/dev")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	loop := map[string]bool{}
	ifs, err := net.Interfaces()
	if err != nil {
		return 0, err
	}
	for _, ifc := range ifs {
		loop[ifc.Name] = ifc.Flags&net.FlagLoopback != 0
	}
	var sum uint64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, counters, ok := strings.Cut(sc.Text(), ":")
		if !ok || loop[strings.TrimSpace(name)] {
			continue // the two header lines, or a loopback
		}
		fields := strings.Fields(counters)
		if len(fields) < 10 {
			return 0, fmt.Errorf("/proc/net/dev row %q has %d counters", name, len(fields))
		}
		tx, err := strconv.ParseUint(fields[9], 10, 64) // 8 receive counters, tx bytes, tx packets
		if err != nil {
			return 0, err
		}
		sum += tx
	}
	return sum, sc.Err()
}

// TestMulticastStaysOnTheHost: a world on a loopback path sends nothing
// through a NIC. The sockets used to be left on whichever interface the
// routing table picks for 239/8 — here eth0, 171,750 packets per 3 s of
// benchmark — while every report said "loopback".
func TestMulticastStaysOnTheHost(t *testing.T) {
	requireMulticast(t)
	nw, err := udpnet.New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if !nw.Path().Loopback {
		t.Skipf("multicast path is %v, not a loopback", nw.Path())
	}
	before, err := nonLoopbackTX()
	if err != nil {
		t.Skipf("cannot read interface counters: %v", err)
	}
	const group, datagrams = 9, 10000
	if err := nw.Endpoint(1).Join(group); err != nil {
		t.Fatal(err)
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			if _, err := nw.Endpoint(1).Recv(); err != nil {
				return
			}
		}
	}()
	for i := 0; i < datagrams; i++ {
		if err := nw.Endpoint(0).Multicast(group, transport.Message{Payload: []byte("stay")}); err != nil {
			t.Fatal(err)
		}
	}
	after, err := nonLoopbackTX()
	if err != nil {
		t.Fatal(err)
	}
	if sent := nw.Endpoint(0).Stats().DatagramsSent; sent != datagrams {
		t.Fatalf("sent %d datagrams, want %d", sent, datagrams)
	}
	if leaked := after - before; leaked >= 1000 {
		t.Errorf("non-loopback interfaces transmitted %d packets while %d datagrams were multicast on %v", leaked, datagrams, nw.Path())
	}
	nw.Close()
	<-drained
}
