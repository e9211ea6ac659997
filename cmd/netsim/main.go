// Command netsim inspects the simulated Fast Ethernet testbed without any
// MPI on top: it drives raw traffic patterns through the hub and the
// switch and prints data-link statistics (serialization, collisions,
// deferrals, store-and-forward latency, IGMP snooping behaviour). It is
// the tool used to sanity-check the network model against back-of-the-
// envelope Ethernet arithmetic.
//
// Usage:
//
//	netsim -pattern fanin -n 6 -frames 10 -size 1000
//	netsim -pattern allpairs -n 4
//	netsim -pattern mcast -n 9
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/ethernet"
	"repro/internal/sim"
)

func main() {
	var (
		pattern = flag.String("pattern", "fanin", "fanin | allpairs | mcast")
		n       = flag.Int("n", 4, "number of stations")
		frames  = flag.Int("frames", 5, "frames per sender")
		size    = flag.Int("size", 1000, "frame payload bytes, at most the MTU")
	)
	flag.Parse()

	// A frame carries at most ethernet.MaxPayload bytes: the modelled
	// Ethernet cannot carry a larger one.
	for _, f := range []struct {
		name           string
		v, least, most int
	}{{"n", *n, 1, math.MaxInt}, {"frames", *frames, 0, math.MaxInt}, {"size", *size, 0, ethernet.MaxPayload}} {
		if f.v < f.least {
			fmt.Fprintf(os.Stderr, "netsim: -%s %d is out of range; give %d or more\n", f.name, f.v, f.least)
			os.Exit(2)
		}
		if f.v > f.most {
			fmt.Fprintf(os.Stderr, "netsim: -%s %d is out of range; give %d or less\n", f.name, f.v, f.most)
			os.Exit(2)
		}
	}
	for _, topo := range []string{"hub", "switch"} {
		stats, err := run(topo, *pattern, *n, *frames, *size)
		if err != nil {
			fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(stats)
	}
}

type world struct {
	eng  *sim.Engine
	hub  *ethernet.Hub
	sw   *ethernet.Switch
	nics []*ethernet.NIC
	recv []int
}

func build(topo string, n int) (*world, error) {
	params := ethernet.DefaultParams()
	w := &world{eng: sim.New(), recv: make([]int, n)}
	var attach func(*ethernet.NIC)
	switch topo {
	case "hub":
		w.hub = ethernet.NewHub(w.eng, params)
		attach = w.hub.Attach
	case "switch":
		w.sw = ethernet.NewSwitch(w.eng, params)
		attach = w.sw.Attach
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
	rng := sim.NewRand(42)
	for i := 0; i < n; i++ {
		nic := ethernet.NewNIC(w.eng, ethernet.UnicastMAC(i), params, rng.Fork())
		i := i
		nic.SetReceiver(func(ethernet.Frame) { w.recv[i]++ })
		attach(nic)
		w.nics = append(w.nics, nic)
	}
	return w, nil
}

func run(topo, pattern string, n, frames, size int) (string, error) {
	w, err := build(topo, n)
	if err != nil {
		return "", err
	}
	payload := make([]byte, size)
	switch pattern {
	case "fanin":
		// Everyone floods station 0 at once: worst-case contention.
		for i := 1; i < n; i++ {
			for k := 0; k < frames; k++ {
				w.nics[i].Send(ethernet.Frame{Dst: ethernet.UnicastMAC(0), Kind: ethernet.KindData, Payload: payload})
			}
		}
	case "allpairs":
		// Station i bursts to station (i+1) mod n: parallel flows the
		// switch can carry simultaneously but the hub serializes.
		for i := 0; i < n; i++ {
			dst := ethernet.UnicastMAC((i + 1) % n)
			for k := 0; k < frames; k++ {
				w.nics[i].Send(ethernet.Frame{Dst: dst, Kind: ethernet.KindData, Payload: payload})
			}
		}
	case "mcast":
		// One sender, everyone else joined: a single frame on the wire.
		g := ethernet.GroupMAC(1)
		for i := 1; i < n; i++ {
			w.nics[i].Join(g)
		}
		for k := 0; k < frames; k++ {
			w.nics[0].Send(ethernet.Frame{Dst: g, Kind: ethernet.KindData, Payload: payload})
		}
	default:
		return "", fmt.Errorf("unknown pattern %q", pattern)
	}
	if err := w.eng.Run(); err != nil {
		return "", err
	}

	out := fmt.Sprintf("%s  pattern=%s n=%d frames=%d size=%dB\n", topo, pattern, n, frames, size)
	out += fmt.Sprintf("  finished at %v\n", w.eng.Now())
	total := 0
	for _, r := range w.recv {
		total += r
	}
	out += fmt.Sprintf("  frames delivered: %d\n", total)
	if w.hub != nil {
		out += fmt.Sprintf("  hub: %+v\n", w.hub.Stats)
	}
	if w.sw != nil {
		out += fmt.Sprintf("  switch: %+v\n", w.sw.Stats)
	}
	var sent, coll, drops int64
	for _, nic := range w.nics {
		sent += nic.Stats.FramesSent
		coll += nic.Stats.Collisions
		drops += nic.Stats.Drops
	}
	out += fmt.Sprintf("  stations: sent=%d collisions=%d excessive-collision drops=%d\n\n", sent, coll, drops)
	return out, nil
}
