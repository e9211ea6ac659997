// Command promcheck fetches a Prometheus text-format exposition (from a
// live endpoint or a file), validates that it parses, and optionally
// requires named metric families to be present. CI uses it to prove the
// mpirun -metrics endpoint serves well-formed, populated telemetry
// during a real UDP run.
//
// Usage:
//
//	promcheck -url http://127.0.0.1:9464/metrics -retries 50 -wait 100ms \
//	          -require mcast_stream_srtt_us,mcast_nic_delivered_bytes
//	promcheck -file exposition.txt -require mcast_coll_ops
//
// Exit status: 0 when the exposition parses and every required family
// is present, nonzero otherwise. With -retries the fetch is re-tried
// until it both succeeds and satisfies -require, so CI can start the
// check concurrently with the run it observes.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/metrics"
)

func main() {
	var (
		url     = flag.String("url", "", "metrics endpoint to fetch (e.g. http://127.0.0.1:9464/metrics)")
		file    = flag.String("file", "", "exposition file to validate instead of fetching")
		require = flag.String("require", "", "comma-separated metric families that must be present (name matches exactly or up to its label block)")
		retries = flag.Int("retries", 1, "fetch attempts before giving up (-url only)")
		wait    = flag.Duration("wait", 200*time.Millisecond, "delay between fetch attempts")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "promcheck: %s is not a flag; promcheck takes no arguments (see -h)\n", flag.Arg(0))
		os.Exit(2)
	}
	if (*url == "") == (*file == "") {
		fmt.Fprintln(os.Stderr, "promcheck: exactly one of -url or -file is required")
		os.Exit(2)
	}
	var want []string
	for _, f := range strings.Split(*require, ",") {
		if f = strings.TrimSpace(f); f != "" {
			want = append(want, f)
		}
	}

	var lastErr error
	attempts := *retries
	if *file != "" {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(*wait)
		}
		data, err := load(*url, *file)
		if err == nil {
			err = check(data, want)
		}
		if err == nil {
			fmt.Printf("promcheck: exposition valid, %d required families present\n", len(want))
			return
		}
		lastErr = err
	}
	fmt.Fprintf(os.Stderr, "promcheck: %v\n", lastErr)
	os.Exit(1)
}

func load(url, file string) ([]byte, error) {
	if file != "" {
		return os.ReadFile(file)
	}
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// check validates the exposition and verifies every required family has
// at least one sample.
func check(data []byte, want []string) error {
	if err := metrics.ValidateExposition(data); err != nil {
		return err
	}
	present := make(map[string]bool)
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		present[name] = true
	}
	for _, fam := range want {
		// Meters export as fam_total/fam_rate and histograms as
		// fam_bucket/_sum/_count; accept the family if any series of it
		// is present.
		ok := present[fam]
		for _, suffix := range []string{"_total", "_rate", "_bucket", "_sum", "_count"} {
			ok = ok || present[fam+suffix]
		}
		if !ok {
			return fmt.Errorf("required family %q has no samples", fam)
		}
	}
	return nil
}
