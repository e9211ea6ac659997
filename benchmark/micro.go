package main

import (
	"flag"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/ethernet"
	"repro/internal/ipnet"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/reliab"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/udpnet"
)

// Layer micro-measurements: each times one layer's public functions in
// isolation, from outside, with the standard library's benchmark loop
// (testing.Benchmark), so a regression or a win has an address. They
// are the same whatever the workload; every traced run repeats them.

// perOp runs f under testing.Benchmark and returns host ns and heap
// allocations per b.N unit.
func perOp(f func(b *testing.B)) (ns, allocs float64) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	if r.N == 0 {
		return 0, 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)
}

// microLayers measures every layer; budget bounds each measurement.
func microLayers(budget time.Duration, port int) result {
	res := newResult()
	// testing.Benchmark sizes its loop from -test.benchtime.
	if err := flag.Set("test.benchtime", budget.String()); err != nil {
		panic(err) // the flag is registered by testing.Init in main
	}
	microSim(&res)
	microEthernet(&res)
	microIPNet(&res)
	microTransport(&res)
	microReliab(&res)
	microSimnet(&res)
	microMPI(&res)
	microObservers(&res)
	if err := udpnet.Probe(); err != nil {
		res.note("udpnet micro-measurements skipped: %v", err)
	} else {
		microUDP(&res, budget, port)
	}
	return res
}

func microSim(res *result) {
	// 64 self-rescheduling timers drained through the heap path: the
	// bare engine, the same population bench.RunTrajectory calibrates on.
	ns, allocs := perOp(func(b *testing.B) {
		eng := sim.New()
		n := 0
		for t := 0; t < 64; t++ {
			delay := int64(t%7 + 1)
			var tick func()
			tick = func() {
				n++
				if n < b.N {
					eng.At(delay, tick)
				}
			}
			eng.At(delay, tick)
		}
		b.ResetTimer()
		_ = eng.Run() // no procs: nothing can deadlock
	})
	res.set("sim.engine_ns_per_event", ns)
	res.set("sim.engine_allocs_per_event", allocs)

	// Two procs ping-pong through queues: each round trip is two
	// goroutine hand-offs through the engine.
	ns, _ = perOp(func(b *testing.B) {
		eng := sim.New()
		ping, pong := sim.NewQueue[int](eng), sim.NewQueue[int](eng)
		eng.Spawn("ping", func(p *sim.Proc) error {
			for i := 0; i < b.N; i++ {
				pong.Push(i)
				ping.Recv(p)
			}
			pong.Close()
			return nil
		})
		eng.Spawn("pong", func(p *sim.Proc) error {
			for {
				v, ok := pong.Recv(p)
				if !ok {
					return nil
				}
				ping.Push(v)
			}
		})
		b.ResetTimer()
		_ = eng.Run()
	})
	res.set("sim.proc_handoff_ns", ns/2)

	ns, _ = perOp(func(b *testing.B) {
		eng := sim.New()
		q := sim.NewQueue[int](eng)
		eng.Spawn("q", func(p *sim.Proc) error {
			for i := 0; i < b.N; i++ {
				q.Push(i)
				q.Recv(p)
			}
			return nil
		})
		b.ResetTimer()
		_ = eng.Run()
	})
	res.set("sim.queue_ns_per_op", ns)
}

// frameBatch bounds how many frames sit in a NIC's transmit queue at
// once while a forwarding measurement runs.
const frameBatch = 1024

// pump calls send b.N times in batches, draining the engine after each
// batch.
func pump(b *testing.B, eng *sim.Engine, send func()) {
	for sent := 0; sent < b.N; {
		n := min(frameBatch, b.N-sent)
		for i := 0; i < n; i++ {
			send()
		}
		_ = eng.Run() // no procs: nothing can deadlock
		sent += n
	}
}

// stations builds n NICs with sink receivers.
func stations(eng *sim.Engine, n int) []*ethernet.NIC {
	rng := sim.NewRand(1)
	nics := make([]*ethernet.NIC, n)
	for i := range nics {
		nics[i] = ethernet.NewNIC(eng, ethernet.UnicastMAC(i), ethernet.DefaultParams(), rng.Fork())
		nics[i].SetReceiver(func(ethernet.Frame) {})
	}
	return nics
}

func microEthernet(res *result) {
	payload := make([]byte, 64)
	onSwitch := func() (*sim.Engine, []*ethernet.NIC) {
		eng := sim.New()
		sw := ethernet.NewSwitch(eng, ethernet.DefaultParams())
		nics := stations(eng, 8)
		for _, n := range nics {
			sw.Attach(n)
		}
		// One frame from every station teaches the switch its port.
		for _, n := range nics {
			n.Send(ethernet.Frame{Dst: ethernet.Broadcast, Kind: ethernet.KindControl, Payload: payload})
		}
		_ = eng.Run()
		return eng, nics
	}
	ns, _ := perOp(func(b *testing.B) {
		eng, nics := onSwitch()
		b.ResetTimer()
		unicast := ethernet.Frame{Dst: ethernet.UnicastMAC(1), Kind: ethernet.KindData, Payload: payload}
		pump(b, eng, func() { nics[0].Send(unicast) })
	})
	res.set("ethernet.switch_ns_per_frame_unicast", ns)

	ns, _ = perOp(func(b *testing.B) {
		eng, nics := onSwitch()
		g := ethernet.GroupMAC(7)
		for _, n := range nics[1:] {
			n.Join(g)
		}
		b.ResetTimer()
		mcast := ethernet.Frame{Dst: g, Kind: ethernet.KindData, Payload: payload}
		pump(b, eng, func() { nics[0].Send(mcast) })
	})
	res.set("ethernet.switch_ns_per_frame_mcast", ns)

	ns, _ = perOp(func(b *testing.B) {
		eng := sim.New()
		hub := ethernet.NewHub(eng, ethernet.DefaultParams())
		nics := stations(eng, 8)
		for _, n := range nics {
			hub.Attach(n)
		}
		b.ResetTimer()
		unicast := ethernet.Frame{Dst: ethernet.UnicastMAC(1), Kind: ethernet.KindData, Payload: payload}
		pump(b, eng, func() { nics[0].Send(unicast) })
	})
	res.set("ethernet.hub_ns_per_frame", ns)
}

func microIPNet(res *result) {
	ns, allocs := perOp(func(b *testing.B) {
		eng := sim.New()
		sw := ethernet.NewSwitch(eng, ethernet.DefaultParams())
		nics := stations(eng, 2)
		nodes := make([]*ipnet.Node, 2)
		for i, n := range nics {
			sw.Attach(n)
			nodes[i] = ipnet.NewNode(eng, n, ipnet.RankAddr(i))
			nodes[i].SetHandler(func(ipnet.Datagram) {})
		}
		d := ipnet.Datagram{Dst: ipnet.RankAddr(1), SrcPort: 1, DstPort: 1, Payload: make([]byte, 64)}
		b.ResetTimer()
		pump(b, eng, func() { _ = nodes[0].SendUDP(d) }) // 64 B: cannot exceed the MTU
	})
	res.set("ipnet.ns_per_datagram", ns)
	res.set("ipnet.allocs_per_datagram", allocs)
}

// Fragment geometry of the udp_large_n4 messages: 64 KiB over 1400-byte
// fragment payloads.
const (
	largeMsg = 64 << 10
	fragSize = 1400
)

func microTransport(res *result) {
	msg := transport.Message{Kind: transport.P2P, Comm: 1, Payload: make([]byte, largeMsg)}
	frags := transport.Split(msg, 1, fragSize)
	wire := transport.EncodeFragment(frags[0])
	nfrag := float64(len(frags))

	ns, _ := perOp(func(b *testing.B) {
		scratch := make([]byte, 0, 2048)
		for i := 0; i < b.N; i++ {
			scratch = transport.AppendFragment(scratch[:0], frags[0])
		}
	})
	res.set("transport.append_fragment_ns", ns)
	ns, _ = perOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := transport.DecodeFragment(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.set("transport.decode_fragment_ns", ns)
	ns, splitAllocs := perOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			transport.Split(msg, uint64(i), fragSize)
		}
	})
	res.set("transport.split_ns_per_frag", ns/nfrag)
	ns, reasmAllocs := perOp(func(b *testing.B) {
		var r transport.Reassembler
		for i := 0; i < b.N; i++ {
			for _, f := range frags {
				f.MsgID = uint64(i + 1)
				if _, _, err := r.Add(f); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	res.set("transport.reassemble_ns_per_frag", ns/nfrag)
	res.set("transport.allocs_per_frag", (splitAllocs+reasmAllocs)/nfrag)
}

func microReliab(res *result) {
	opts := reliab.Options{}.Fill()
	one := transport.Split(transport.Message{Kind: transport.P2P, Payload: make([]byte, 64)}, 1, fragSize)
	// Admit a full window, then retire it with one cumulative ack: the
	// sender-side cost per streamed message.
	ns, _ := perOp(func(b *testing.B) {
		ss := reliab.NewSendStream(opts)
		for i := 0; i < b.N; {
			var seq uint32
			for ; !ss.Full() && i < b.N; i++ {
				seq = ss.Begin(uint64(i), one)
				ss.MarkSent(seq)
			}
			ss.HandleAckAt(int64(i), reliab.Ack{Cum: seq})
		}
	})
	res.set("reliab.admit_ack_ns_per_msg", ns)
	ns, _ = perOp(func(b *testing.B) {
		rs := reliab.NewRecvStream()
		for i := 1; i <= b.N; i++ {
			if rs.Fresh(uint32(i), uint64(i)) {
				rs.Deliver(uint32(i))
			}
		}
	})
	res.set("reliab.recv_ns_per_frag", ns)
	ack := reliab.Ack{Cum: 40, Sacks: []uint32{42, 44}, Nonce: 3}
	ns, _ = perOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := reliab.DecodeCtl(reliab.EncodeAck(ack, fragSize)); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.set("reliab.ctl_codec_ns", ns)
}

func microSimnet(res *result) {
	var events, msgs uint64
	ns, _ := perOp(func(b *testing.B) {
		nw := simnet.New(2, simnet.Switch, simnet.DefaultProfile())
		m := transport.Message{Kind: transport.P2P, Comm: 1, Payload: make([]byte, 64)}
		b.ResetTimer()
		err := nw.Run([]func(ep *simnet.Endpoint) error{
			func(ep *simnet.Endpoint) error {
				for i := 0; i < b.N; i++ {
					if err := ep.Send(1, m); err != nil {
						return err
					}
				}
				return nil
			},
			func(ep *simnet.Endpoint) error {
				for i := 0; i < b.N; i++ {
					if _, err := ep.Recv(); err != nil {
						return err
					}
				}
				return nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		events, msgs = nw.Events(), uint64(b.N)
	})
	res.set("simnet.p2p_host_ns_per_msg", ns)
	res.set("simnet.p2p_events_per_msg", ratio(float64(events), float64(msgs)))

	// Rank 0 multicasts 64 KiB messages to seven members; host cost per
	// fragment put on the wire.
	const group = 9
	frags := float64((largeMsg + simnet.MaxFragPayload - 1) / simnet.MaxFragPayload)
	ns, _ = perOp(func(b *testing.B) {
		nw := simnet.New(8, simnet.Switch, simnet.DefaultProfile())
		m := transport.Message{Kind: transport.Mcast, Comm: 1, Payload: make([]byte, largeMsg)}
		fns := make([]func(ep *simnet.Endpoint) error, 8)
		fns[0] = func(ep *simnet.Endpoint) error {
			// Members join at time 0; send once they have.
			ep.Proc().Sleep(sim.Microsecond)
			for i := 0; i < b.N; i++ {
				if err := ep.Multicast(group, m); err != nil {
					return err
				}
			}
			return nil
		}
		for r := 1; r < 8; r++ {
			fns[r] = func(ep *simnet.Endpoint) error {
				if err := ep.Join(group); err != nil {
					return err
				}
				for i := 0; i < b.N; i++ {
					if _, err := ep.Recv(); err != nil {
						return err
					}
				}
				return nil
			}
		}
		b.ResetTimer()
		if err := nw.Run(fns); err != nil {
			b.Fatal(err)
		}
	})
	res.set("simnet.mcast_host_ns_per_frag", ns/frags)

	ns, _ = perOp(func(b *testing.B) {
		group := make([]int, 256)
		for i := range group {
			group[i] = i
		}
		for i := 0; i < b.N; i++ {
			if _, err := topo.Uniform(256, 4).Project(group); err != nil {
				b.Fatal(err)
			}
		}
	})
	res.set("topo.uniform_project_us", ns/1e3)
}

// microMPI runs the mpi and core layers over the in-process channel
// transport: their host cost with no wire underneath.
func microMPI(res *result) {
	algs, err := bench.Set(bench.McastBinary)
	if err != nil {
		panic(err) // a registered name
	}
	ns, allocs := perOp(func(b *testing.B) {
		buf := make([]byte, 64)
		err := mpi.RunMem(2, algs, func(c *mpi.Comm) error {
			peer := 1 - c.Rank()
			for i := 0; i < b.N; i++ {
				if c.Rank() == i%2 {
					if err := c.Send(peer, 1, buf); err != nil {
						return err
					}
				} else if _, err := c.Recv(peer, 1, make([]byte, 64)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	res.set("mpi.mem_p2p_ns_per_msg", ns)
	res.set("mpi.mem_p2p_allocs_per_msg", allocs)

	ns, allocs = perOp(func(b *testing.B) {
		err := mpi.RunMem(udpRanks, algs, func(c *mpi.Comm) error {
			cols := make([]*collective, len(allOps))
			for k, kind := range allOps {
				cols[k] = newCollective(c, kind, 64, 0, 1, true, nil)
				cols[k].prepare(0)
			}
			for i := 0; i < b.N; i++ {
				if err := cols[i%len(cols)].call(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	res.set("mpi.mem_coll_ns_per_op", ns)
	res.set("mpi.mem_coll_allocs_per_op", allocs)
}

// microObservers prices the two observers when they are switched on;
// the end-to-end runs never attach them.
func microObservers(res *result) {
	ns, allocs := perOp(func(b *testing.B) {
		rec := trace.NewRecorder()
		for i := 0; i < b.N; i++ {
			if i&0xFFFF == 0 {
				rec.Reset() // bound the log; the amortised append cost stays in
			}
			rec.Event(0, int64(i), "send.scout", 0)
		}
	})
	res.set("trace.enabled_ns_per_event", ns)
	res.set("trace.enabled_allocs_per_event", allocs)
	ns, _ = perOp(func(b *testing.B) {
		h := metrics.NewRegistry().Histogram("bench_latency_us")
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i & 0xFFF))
		}
	})
	res.set("metrics.enabled_ns_per_observe", ns)
}

// microUDP measures the real-socket endpoint directly, below mpi: a
// ping-pong, a one-way reliable stream and a multicast fan-out, each for
// budget of wall time over the host's loopback interface.
func microUDP(res *result, budget time.Duration, port int) {
	base := runtime.NumGoroutine()
	world := func(n int, fns ...func(ep *udpnet.Endpoint) error) error {
		cfg := udpnet.DefaultConfig(n)
		cfg.McastPort = port
		nw, err := udpnet.New(cfg)
		if err != nil {
			return err
		}
		defer nw.Close()
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if errs[i] = fns[i](nw.Endpoint(i)); errs[i] != nil {
					nw.Close() // unblock the peers
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	small := transport.Message{Kind: transport.P2P, Comm: 1, Payload: make([]byte, 64)}
	stop := transport.Message{Kind: transport.P2P, Comm: 1, Tag: 1}

	// Ping-pong: half the round trip of a 64 B message.
	var rounds int
	var elapsed time.Duration
	err := world(2,
		func(ep *udpnet.Endpoint) error {
			start := time.Now()
			for time.Since(start) < budget {
				if err := ep.Send(1, small); err != nil {
					return err
				}
				if _, err := ep.Recv(); err != nil {
					return err
				}
				rounds++
			}
			elapsed = time.Since(start)
			return ep.Send(1, stop)
		},
		func(ep *udpnet.Endpoint) error {
			for {
				m, err := ep.Recv()
				if err != nil || m.Tag == stop.Tag {
					return err
				}
				if err := ep.Send(0, small); err != nil {
					return err
				}
			}
		})
	if err != nil {
		res.note("udpnet.pingpong_us: %v", err)
	} else {
		res.set("udpnet.pingpong_us", ratio(float64(elapsed.Microseconds()), float64(2*rounds)))
	}

	// One-way stream of 64 KiB messages through SendReliable, the window
	// and the receiver-silent ack protocol included.
	large := transport.Message{Kind: transport.P2P, Comm: 1, Payload: make([]byte, largeMsg)}
	var streamed int
	err = world(2,
		func(ep *udpnet.Endpoint) error {
			start := time.Now()
			for time.Since(start) < budget {
				if err := ep.SendReliable(1, large); err != nil {
					return err
				}
				streamed++
			}
			if err := ep.SendReliable(1, stop); err != nil {
				return err
			}
			// The receiver's reply proves everything arrived.
			_, err := ep.Recv()
			elapsed = time.Since(start)
			return err
		},
		func(ep *udpnet.Endpoint) error {
			for {
				m, err := ep.Recv()
				if err != nil {
					return err
				}
				if m.Tag == stop.Tag {
					return ep.Send(0, stop)
				}
			}
		})
	if err != nil {
		res.note("udpnet.stream_mbps: %v", err)
	} else {
		res.set("udpnet.stream_mbps", ratio(float64(streamed)*largeMsg*8/1e6, elapsed.Seconds()))
	}

	// Multicast fan-out 1 -> 3: from the send call to the last receiver
	// holding the message, on the process's shared clock.
	const group = 11
	var (
		mu      sync.Mutex
		sentAt  time.Time
		fanouts []float64
	)
	members := func(ep *udpnet.Endpoint) error {
		if err := ep.Join(group); err != nil {
			return err
		}
		if err := ep.Send(0, small); err != nil { // joined
			return err
		}
		for {
			m, err := ep.Recv()
			if err != nil || m.Tag == stop.Tag {
				return err
			}
			got := time.Now()
			mu.Lock()
			fanouts = append(fanouts, float64(got.Sub(sentAt).Nanoseconds())/1e3)
			mu.Unlock()
			if err := ep.Send(0, small); err != nil {
				return err
			}
		}
	}
	err = world(udpRanks,
		func(ep *udpnet.Endpoint) error {
			collect := func() error {
				for i := 1; i < udpRanks; i++ {
					if _, err := ep.Recv(); err != nil {
						return err
					}
				}
				return nil
			}
			if err := collect(); err != nil { // every member joined
				return err
			}
			mc := transport.Message{Kind: transport.Mcast, Comm: 1, Payload: make([]byte, 64)}
			start := time.Now()
			for time.Since(start) < budget {
				mu.Lock()
				sentAt = time.Now()
				mu.Unlock()
				if err := ep.Multicast(group, mc); err != nil {
					return err
				}
				if err := collect(); err != nil {
					return err
				}
			}
			for i := 1; i < udpRanks; i++ {
				if err := ep.Send(i, stop); err != nil {
					return err
				}
			}
			return nil
		}, members, members, members)
	if err != nil {
		res.note("udpnet.mcast_fanout_us: %v", err)
	} else {
		// Every round contributes three readings; the slowest of each
		// round is the fan-out time, so take the per-round maximum.
		var last []float64
		for i := 0; i+udpRanks-1 <= len(fanouts); i += udpRanks - 1 {
			worst := 0.0
			for _, d := range fanouts[i : i+udpRanks-1] {
				if d > worst {
					worst = d
				}
			}
			last = append(last, worst)
		}
		res.set("udpnet.mcast_fanout_us", median(last))
	}
	if !waitGoroutines(base) {
		res.note("udpnet micro-measurements: leak: %d goroutines outlived their closed worlds", runtime.NumGoroutine()-base)
	}
}
