package bench

import (
	"strings"
	"testing"

	"repro/internal/simnet"
)

const committedRecord = "../../BENCH_sim.json"

// TestTrajectoryReproducesCommittedRecord is ROADMAP aim 2's "BENCH_sim.json
// event counts unchanged" as a test: it regenerates the rows with N ≤ 64
// and requires them equal to the committed file's. (The seven N=256 rows
// cost seconds; CI's bench-smoke regenerates the whole file and cmp's
// it, and the benchmark's check: line re-measures those seven.) A change
// that moves a count on purpose commits the regenerated file.
func TestTrajectoryReproducesCommittedRecord(t *testing.T) {
	base, err := LoadTrajectory(committedRecord)
	if err != nil {
		t.Fatal(err)
	}
	const maxN = 64
	small := base.Entries[:0:0]
	for _, e := range base.Entries {
		if e.Procs <= maxN {
			small = append(small, e)
		}
	}
	base.Entries = small
	cur, err := runTrajectory(base.Seed, maxN)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range GateTrajectory(cur, base) {
		t.Error(v)
	}
}

// TestGateTrajectory holds the gate to an equality that names what
// differs: each edit of a copy of the record is exactly one violation
// naming the edited row.
func TestGateTrajectory(t *testing.T) {
	cur, err := LoadTrajectory(committedRecord)
	if err != nil {
		t.Fatal(err)
	}
	clone := func() *Trajectory {
		c := *cur
		c.Entries = append([]TrajectoryEntry(nil), cur.Entries...)
		return &c
	}
	extra := TrajectoryEntry{Op: "bcast", Algorithm: "mcast-binary", Procs: 8, Check: "ok"}
	for _, tc := range []struct {
		name string
		edit func(base *Trajectory)
		want string // substring of the one violation; "" means none
	}{
		{"identical", func(*Trajectory) {}, ""},
		{"events +1", func(b *Trajectory) { b.Entries[9].Events++ }, cur.Entries[9].row()},
		{"sim_us second decimal", func(b *Trajectory) { b.Entries[20].SimUS += 0.01 }, cur.Entries[20].row()},
		{"row removed", func(b *Trajectory) { b.Entries = b.Entries[:41] }, cur.Entries[41].row() + ": not in the baseline"},
		{"row added", func(b *Trajectory) { b.Entries = append(b.Entries, extra) }, extra.row() + ": in the baseline, not measured"},
		{"v1 file", func(b *Trajectory) {
			b.Schema = "mcast-bench-trajectory/v1"
			b.Entries[0].Events++
		}, "schema"},
	} {
		base := clone()
		tc.edit(base)
		v := GateTrajectory(cur, base)
		switch {
		case tc.want == "" && len(v) != 0:
			t.Errorf("%s: violations %q, want none", tc.name, v)
		case tc.want != "" && (len(v) != 1 || !strings.Contains(v[0], tc.want)):
			t.Errorf("%s: violations %q, want exactly one naming %q", tc.name, v, tc.want)
		}
	}
	bad := clone()
	bad.Entries[3].Check = "SCOUT-EXCESS"
	if v := GateTrajectory(bad, nil); len(v) != 1 || !strings.Contains(v[0], bad.Entries[3].row()+": SCOUT-EXCESS") {
		t.Errorf("SCOUT-EXCESS row with no baseline: violations %q", v)
	}
}

// TestEntryCheck pins what a row's check reads. The chunked allreduce
// on more than one segment is held to the two-level allgather's scout
// bound ((N-S) + S(S-1) + S: 4,288 at N=256, S=64); on one segment it
// runs flat rounds and reads ok whatever its scout count.
func TestEntryCheck(t *testing.T) {
	row := func(op Op, a Algorithm, n, s int, scouts, drops int64) TrajectoryEntry {
		return TrajectoryEntry{Op: string(op), Algorithm: string(a), Procs: n, Segments: s, ScoutFrames: scouts, SilentDrops: drops}
	}
	for _, tc := range []struct {
		e    TrajectoryEntry
		want string
	}{
		{row(OpAllreduce, McastChunked, 4, 1, 12, 0), "ok"},
		{row(OpAllreduce, McastChunked, 256, 64, 4224, 0), "ok"},
		{row(OpAllreduce, McastChunked, 256, 64, 4289, 0), "SCOUT-EXCESS"},
		{row(OpAllreduce, McastChunked, 256, 64, 65280, 0), "SCOUT-EXCESS"},
		{row(OpAllreduce, McastChunked, 8, 2, 8, 1), "SILENT-DROP"},
		{row(OpAllgather, McastTwoLevel, 4, 1, 12, 0), "flat (S=1)"},
		{row(OpAllgather, McastTwoLevel, 256, 64, 4289, 0), "SCOUT-EXCESS"},
		{row(OpAllreduce, McastTwoLevel, 256, 64, 0, 0), "ok"},
		{row(OpAllgather, McastBinary, 256, 64, 65280, 0), "ok"},
	} {
		if got := entryCheck(tc.e); got != tc.want {
			t.Errorf("%s S=%d, %d scouts, %d drops: check %q, want %q", tc.e.row(), tc.e.Segments, tc.e.ScoutFrames, tc.e.SilentDrops, got, tc.want)
		}
	}
}

// TestSilentDropFires holds that the SILENT-DROP mark can fire in a
// shipped configuration: figure a4's overrun (eight senders streaming 64
// messages each at one busy receiver) on the default switch, with flow
// control and the default 256-message ring, drops 256 of the 512
// messages at the receiving host, and an entry carrying that count
// renders SILENT-DROP and fails the gate.
func TestSilentDropFires(t *testing.T) {
	nw, err := overrun(simnet.DefaultProfile().RecvRing, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.SilentDrops(); got != 256 {
		t.Fatalf("SilentDrops() = %d, want 256", got)
	}
	e := TrajectoryEntry{Op: string(OpAllgather), Algorithm: string(McastBinary), Procs: 9, Segments: 9, SilentDrops: nw.SilentDrops()}
	e.Check = entryCheck(e)
	tr := &Trajectory{Schema: TrajectorySchema, Entries: []TrajectoryEntry{e}}
	if !strings.Contains(tr.Render(), "SILENT-DROP") {
		t.Errorf("the entry does not render SILENT-DROP:\n%s", tr.Render())
	}
	if v := GateTrajectory(tr, nil); len(v) != 1 {
		t.Errorf("gate violations %q, want the one SILENT-DROP row", v)
	}
}
