// Command benchmark is the repo's benchmark: five workloads (three on
// the simulated Fast Ethernet testbed, two over real loopback
// UDP/IP-multicast sockets), a handful of end-to-end metrics with
// regression bounds, and a per-layer ledger produced by a separate
// traced run. See README.md beside this file.
//
//	go run ./benchmark                       # every workload: end-to-end, then layers
//	go run ./benchmark -workload udp_small_n4 -trace 0 -seed 7
//	go run ./benchmark -compare a.json b.json
//
// Every layer is measured from outside: worlds are built through
// simnet.New and udpnet.New, algorithm sets resolved through bench.Set,
// collectives invoked as mpi.Comm methods, and counters read from what
// the packages already export.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string
}

func newResult() result { return result{metrics: map[string]float64{}} }

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// absorb folds o's counts, metrics and notes into r.
func (r *result) absorb(o result) {
	r.attempted += o.attempted
	r.failed += o.failed
	for k, v := range o.metrics {
		r.metrics[k] = v
	}
	r.notes = append(r.notes, o.notes...)
}

// options are the command-line settings shared by every workload.
type options struct {
	seed   uint64
	window time.Duration
	quick  bool
	port   int
	outDir string
}

// workload is one of the five named workloads: endToEnd is its
// untraced run, layers its traced run with the counters read around it.
type workload interface {
	endToEnd(o options) (result, error)
	layers(o options) (result, error)
}

func lookup(name string, quick bool) (workload, error) {
	switch name {
	case "sim_paper_n8":
		return simPaperN8(quick), nil
	case "sim_scale_n256":
		return simScaleN256(quick), nil
	case "sim_loss_n32":
		return simLossN32(quick), nil
	case "udp_small_n4":
		return udpSmallN4(), nil
	case "udp_large_n4":
		return udpLargeN4(), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runWorkload runs one workload's end-to-end run (layers false) or its
// traced run plus the layer micro-measurements (layers true).
func runWorkload(name string, layers bool, o options) (result, error) {
	w, err := lookup(name, o.quick)
	if err != nil {
		return result{}, err
	}
	if !layers {
		return w.endToEnd(o)
	}
	res, err := w.layers(o)
	if err != nil {
		return res, err
	}
	budget := 100 * time.Millisecond
	if o.quick {
		budget = 2 * time.Millisecond
	}
	micro := microLayers(budget, o.port)
	// A workload's own reading wins over the micro-measurement of the
	// same name (mpi.world_setup_us, simnet.new_us, udpnet.new_ms).
	micro.absorb(res)
	return micro, nil
}

// report is the JSON line the driver reads, and one entry of -out.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// toReport keeps exactly the declared metrics of the chosen kind: a
// per-layer row the workload does not exercise reads 0.
func toReport(res result, specs []metricSpec) report {
	rep := report{Correct: res.failed == 0 && res.attempted > 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	if rep.Attempted < 1 {
		rep.Attempted = 1
	}
	for _, s := range specs {
		rep.Metrics[s.name] = metricValue{Value: res.metrics[s.name], Unit: s.unit}
	}
	return rep
}

// printRows prints one line per metric: workload metric value unit.
func printRows(workload string, res result, specs []metricSpec) {
	for _, n := range res.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, s := range specs {
		fmt.Printf("%s %s %.6g %s\n", workload, s.name, res.metrics[s.name], s.unit)
	}
	fmt.Printf("%s attempted %d count\n%s failed %d count\n", workload, res.attempted, workload, res.failed)
}

func main() {
	testing.Init() // registers -test.benchtime, which the micro-measurements set
	var (
		only     = flag.String("workload", "", "run one workload (default: all five)")
		seed     = flag.Uint64("seed", 1, "drives payload bytes, entry skew, CSMA/CD backoff and loss draws")
		seconds  = flag.Float64("seconds", runSeconds, "measuring window of one run")
		traceSel = flag.Int("trace", -1, "0: end-to-end metrics (observers off); 1: traced run and layer micro-measurements; -1: both")
		quick    = flag.Bool("quick", false, "smoke sizes: tiny grids and windows, for tests")
		out      = flag.String("out", "", "write every result as JSON (input of -compare)")
		port     = flag.Int("mcast-port", 20000+os.Getpid()%20000, "UDP multicast port (default derived from the pid so concurrent runs never cross-talk)")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare A.json B.json")
		ledger   = flag.Bool("ledger", false, "print the per-layer ledger (layer, metrics, source, prediction) as a markdown table")
	)
	flag.Parse()
	if *ledger {
		printLedger()
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	}
	o := options{
		seed: *seed, window: time.Duration(*seconds * float64(time.Second)), quick: *quick,
		port: *port, outDir: "benchmark/out",
	}
	if *quick {
		o.window = min(o.window, 300*time.Millisecond)
	}
	names := []string{*only}
	if *only == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	all := map[string]map[string]report{} // workload -> "e2e"|"layers" -> report
	exit := 0
	var last report
	for _, name := range names {
		all[name] = map[string]report{}
		for _, layers := range []bool{false, true} {
			if (*traceSel == 0 && layers) || (*traceSel == 1 && !layers) {
				continue
			}
			specs, kind := endToEnd, "e2e"
			if layers {
				specs, kind = perLayer, "layers"
			}
			res, err := runWorkload(name, layers, o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				os.Exit(1)
			}
			printRows(name, res, specs)
			last = toReport(res, specs)
			all[name][kind] = last
			if !last.Correct {
				exit = 1
			}
		}
	}
	if *only == "" && *seed == 1 && !*quick {
		checkScaleAgainstTrajectory(o.seed)
	}
	if *out != "" {
		b, err := json.MarshalIndent(all, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing %s: %v\n", *out, err)
			os.Exit(1)
		}
	}
	if *only != "" && *traceSel >= 0 {
		// Driver contract: the last line of standard output is the JSON
		// result of the one run made.
		b, err := json.Marshal(last)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		// A failed operation is reported in the result, not by the exit
		// code: the run itself completed.
		return
	}
	os.Exit(exit)
}
