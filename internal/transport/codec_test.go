package transport

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestFragmentRoundTrip(t *testing.T) {
	f := func(comm uint32, src int16, tag int32, seq uint32, msgID uint64, reliable bool, payload []byte) bool {
		in := Fragment{
			Msg: Message{
				Kind: Mcast, Comm: comm, Src: int(src), Tag: tag, Seq: seq,
				Class: ClassData, Reliable: reliable, Payload: payload,
			},
			MsgID: msgID, Index: 0, Count: 1,
			TotalLen: uint32(len(payload)), Offset: 0,
		}
		b := EncodeFragment(in)
		out, err := DecodeFragment(b)
		if err != nil {
			return false
		}
		return out.Msg.Kind == in.Msg.Kind && out.Msg.Comm == comm &&
			out.Msg.Src == int(src) && out.Msg.Tag == tag && out.Msg.Seq == seq &&
			out.Msg.Reliable == reliable && out.MsgID == msgID &&
			bytes.Equal(out.Msg.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRepairFlagRoundTrip: the retransmission mark rides a bit of the
// flag byte of its own — beside, not instead of, the stream and reliable
// bits — through both encoders, and is clear unless set.
func TestRepairFlagRoundTrip(t *testing.T) {
	for _, in := range []Fragment{
		{Msg: Message{Kind: Mcast, Payload: []byte("x")}, MsgID: 9, Index: 2, Count: 5, TotalLen: 9, Offset: 4, Repair: true},
		{Msg: Message{Kind: P2P, Reliable: true}, MsgID: 9, Count: 1, Stream: 4, Repair: true},
		{Msg: Message{Kind: P2P}, MsgID: 9, Count: 1, Stream: 4},
	} {
		for name, b := range map[string][]byte{"encode": EncodeFragment(in), "append": AppendFragment(make([]byte, 3), in)[3:]} {
			out, err := DecodeFragment(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if out.Repair != in.Repair || out.Stream != in.Stream || out.Ctl || out.Msg.Reliable != in.Msg.Reliable {
				t.Errorf("%s: flags of %+v came back as %+v", name, in, out)
			}
			if got := b[7]&FlagRepair != 0; got != in.Repair {
				t.Errorf("%s: flag byte %#x for Repair=%v", name, b[7], in.Repair)
			}
		}
	}
	if HeaderLen != 48 || wireVersion != 2 {
		t.Fatalf("the repair flag must cost no header byte and no version: header %d, version %d", HeaderLen, wireVersion)
	}
}

// TestRepairFragments: a repair is the named fragments of the original
// split (all of them for nil), under the original id, every one flagged;
// an index the message does not have is an error, not a panic.
func TestRepairFragments(t *testing.T) {
	m := Message{Kind: Mcast, Src: 2, Payload: bytes.Repeat([]byte{7}, 2500)}
	orig := Split(m, 11, 1000)
	some, err := RepairFragments(m, 11, 1000, []int{2, 0})
	if err != nil || len(some) != 2 || some[0].Index != 2 || some[1].Index != 0 {
		t.Fatalf("RepairFragments([2 0]) = %+v, %v", some, err)
	}
	all, err := RepairFragments(m, 11, 1000, nil)
	if err != nil || len(all) != len(orig) {
		t.Fatalf("RepairFragments(nil) = %d fragments, %v; want %d", len(all), err, len(orig))
	}
	for _, f := range append(some, all...) {
		want := orig[f.Index]
		want.Repair = true
		if !f.Repair || f.MsgID != 11 || f.Offset != want.Offset || !bytes.Equal(f.Msg.Payload, want.Msg.Payload) {
			t.Errorf("repair fragment %d = %+v, want the original, flagged", f.Index, f)
		}
	}
	for _, bad := range [][]int{{3}, {-1}, {0, 65536}} {
		if _, err := RepairFragments(m, 11, 1000, bad); err == nil {
			t.Errorf("RepairFragments(%v) of a 3-fragment message succeeded", bad)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10),
		make([]byte, HeaderLen), // zero magic
	}
	for i, b := range cases {
		if _, err := DecodeFragment(b); err == nil {
			t.Errorf("case %d: garbage decoded without error", i)
		}
	}
	// Corrupt the version byte of an otherwise valid packet.
	good := EncodeFragment(Fragment{Msg: Message{Kind: P2P}, Count: 1})
	good[4] = 99
	if _, err := DecodeFragment(good); err == nil {
		t.Error("bad version accepted")
	}
	// Fragment index >= count.
	bad := EncodeFragment(Fragment{Msg: Message{Kind: P2P}, Index: 3, Count: 2})
	if _, err := DecodeFragment(bad); err == nil {
		t.Error("fragment index out of range accepted")
	}
}

func TestSplitSmallMessageIsSingleFragment(t *testing.T) {
	m := Message{Payload: []byte("hello")}
	frags := Split(m, 1, 1000)
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
	if frags[0].Count != 1 || frags[0].Index != 0 {
		t.Fatalf("fragment header wrong: %+v", frags[0])
	}
}

func TestSplitEmptyMessage(t *testing.T) {
	frags := Split(Message{}, 1, 1000)
	if len(frags) != 1 || len(frags[0].Msg.Payload) != 0 {
		t.Fatalf("empty message split wrong: %d frags", len(frags))
	}
}

func TestSplitExactBoundary(t *testing.T) {
	m := Message{Payload: make([]byte, 2000)}
	frags := Split(m, 1, 1000)
	if len(frags) != 2 {
		t.Fatalf("got %d fragments, want 2", len(frags))
	}
	if len(frags[0].Msg.Payload) != 1000 || len(frags[1].Msg.Payload) != 1000 {
		t.Fatal("boundary split sizes wrong")
	}
	if frags[1].Offset != 1000 {
		t.Fatalf("second fragment offset = %d, want 1000", frags[1].Offset)
	}
}

func TestSplitReassembleRoundTrip(t *testing.T) {
	f := func(size uint16, maxFrag uint8) bool {
		mf := int(maxFrag)%500 + 1
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 3)
		}
		m := Message{Kind: P2P, Src: 4, Tag: 9, Payload: payload}
		frags := Split(m, 77, mf)
		var r Reassembler
		for i, fr := range frags {
			// Simulate the wire: encode and decode each fragment.
			decoded, err := DecodeFragment(EncodeFragment(fr))
			if err != nil {
				return false
			}
			out, done, err := r.Add(decoded)
			if err != nil {
				return false
			}
			if done != (i == len(frags)-1) {
				return false
			}
			if done {
				return bytes.Equal(out.Payload, payload) && out.Tag == 9 && out.Src == 4
			}
		}
		return len(frags) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i)
	}
	frags := Split(Message{Src: 1, Payload: payload}, 5, 1000)
	if len(frags) != 3 {
		t.Fatalf("got %d fragments, want 3", len(frags))
	}
	var r Reassembler
	order := []int{2, 0, 1}
	for k, idx := range order {
		m, done, err := r.Add(frags[idx])
		if err != nil {
			t.Fatal(err)
		}
		if done != (k == 2) {
			t.Fatalf("done after %d fragments", k+1)
		}
		if done && !bytes.Equal(m.Payload, payload) {
			t.Fatal("out-of-order reassembly corrupted payload")
		}
	}
}

func TestReassembleTolearatesDuplicates(t *testing.T) {
	payload := make([]byte, 2500)
	frags := Split(Message{Src: 2, Payload: payload}, 9, 1000)
	var r Reassembler
	if _, done, err := r.Add(frags[0]); err != nil || done {
		t.Fatal("first fragment")
	}
	if _, done, err := r.Add(frags[0]); err != nil || done {
		t.Fatal("duplicate fragment must be ignored")
	}
	if _, done, err := r.Add(frags[1]); err != nil || done {
		t.Fatal("second fragment")
	}
	m, done, err := r.Add(frags[2])
	if err != nil || !done {
		t.Fatal("final fragment should complete")
	}
	if len(m.Payload) != 2500 {
		t.Fatalf("payload length %d, want 2500", len(m.Payload))
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d after completion", r.Pending())
	}
}

func TestReassemblerMissing(t *testing.T) {
	payload := make([]byte, 3000)
	frags := Split(Message{Src: 3, Payload: payload}, 11, 1000)
	var r Reassembler
	if _, _, err := r.Add(frags[1]); err != nil {
		t.Fatal(err)
	}
	miss := r.Missing(3, 11)
	if len(miss) != 2 || miss[0] != 0 || miss[1] != 2 {
		t.Fatalf("Missing = %v, want [0 2]", miss)
	}
	if r.Missing(99, 11) != nil {
		t.Fatal("unknown message should report nil")
	}
}

func TestReassemblerInterleavedSenders(t *testing.T) {
	// Two senders' multi-fragment messages interleave without cross-talk.
	pa := bytes.Repeat([]byte{0xAA}, 2500)
	pb := bytes.Repeat([]byte{0xBB}, 2500)
	fa := Split(Message{Src: 1, Payload: pa}, 1, 1000)
	fb := Split(Message{Src: 2, Payload: pb}, 1, 1000) // same msgID, different src
	var r Reassembler
	var gotA, gotB Message
	for i := 0; i < 3; i++ {
		if m, done, err := r.Add(fa[i]); err != nil {
			t.Fatal(err)
		} else if done {
			gotA = m
		}
		if m, done, err := r.Add(fb[i]); err != nil {
			t.Fatal(err)
		} else if done {
			gotB = m
		}
	}
	if !bytes.Equal(gotA.Payload, pa) || !bytes.Equal(gotB.Payload, pb) {
		t.Fatal("interleaved senders corrupted reassembly")
	}
}

func TestAddCopiesSingleFragmentPayload(t *testing.T) {
	buf := []byte("abcdef")
	frags := Split(Message{Src: 1, Payload: buf}, 1, 100)
	var r Reassembler
	m, done, _ := r.Add(frags[0])
	if !done {
		t.Fatal("single fragment should complete")
	}
	buf[0] = 'X'
	if m.Payload[0] == 'X' {
		t.Fatal("reassembled payload aliases the wire buffer")
	}
}

func TestRepairReqRoundTrip(t *testing.T) {
	msgID, missing, err := DecodeRepairReq(EncodeRepairReq(77, []int{0, 3, 9000}))
	if err != nil {
		t.Fatal(err)
	}
	if msgID != 77 || len(missing) != 3 || missing[0] != 0 || missing[1] != 3 || missing[2] != 9000 {
		t.Fatalf("round trip gave msgID=%d missing=%v", msgID, missing)
	}
	// Empty payload = full-resend request.
	if id, miss, err := DecodeRepairReq(nil); err != nil || id != 0 || miss != nil {
		t.Fatalf("nil payload decoded as %d/%v/%v", id, miss, err)
	}
	// Truncated payloads must error, not panic.
	for _, n := range []int{1, 9} {
		if _, _, err := DecodeRepairReq(make([]byte, n)); err == nil {
			t.Errorf("truncated %d-byte request accepted", n)
		}
	}
	// A request whose index list is shorter than its count must error.
	short := EncodeRepairReq(5, []int{1, 2, 3})
	if _, _, err := DecodeRepairReq(short[:len(short)-2]); err == nil {
		t.Error("truncated index list accepted")
	}
}

func TestSliceGroupDistinctAndStable(t *testing.T) {
	seen := map[uint32]string{}
	for _, ctx := range []uint32{1, 2, 0xDEADBEEF} {
		for slice := 0; slice < 16; slice++ {
			g := SliceGroup(ctx, slice)
			if g != SliceGroup(ctx, slice) {
				t.Fatal("derivation not deterministic")
			}
			if g <= 1 {
				t.Fatalf("slice group %d collides with the world context space", g)
			}
			key := fmt.Sprintf("ctx=%d slice=%d", ctx, slice)
			if prev, dup := seen[g]; dup {
				t.Fatalf("slice group collision: %s and %s both map to %d", prev, key, g)
			}
			seen[g] = key
		}
	}
}

// TestSegmentGroupDistinctFromSliceGroups: the two derivations share the
// (ctx, index) input shape but carry distinct domain separators, so a
// segment's group can never systematically shadow a slice's (or a raw
// context), and the derivation is deterministic across ranks.
func TestSegmentGroupDistinctFromSliceGroups(t *testing.T) {
	seen := map[uint32]string{}
	for _, ctx := range []uint32{1, 2, 0xDEADBEEF} {
		for i := 0; i < 16; i++ {
			sg := SegmentGroup(ctx, i)
			if sg != SegmentGroup(ctx, i) {
				t.Fatal("segment derivation not deterministic")
			}
			if sg <= 1 {
				t.Fatalf("segment group %d collides with the world context space", sg)
			}
			for _, entry := range []struct {
				id  uint32
				key string
			}{
				{sg, fmt.Sprintf("seg ctx=%d i=%d", ctx, i)},
				{SliceGroup(ctx, i), fmt.Sprintf("slice ctx=%d i=%d", ctx, i)},
			} {
				if prev, dup := seen[entry.id]; dup {
					t.Fatalf("group collision: %s and %s both map to %d", prev, entry.key, entry.id)
				}
				seen[entry.id] = entry.key
			}
		}
	}
}

// TestReassemblerRepairOfCompletedMessage: a selective repair multicast
// under the original message id must not resurrect partial state at a
// receiver that already completed the message, while a receiver that
// never saw the message still completes from the (full) repair.
func TestReassemblerRepairOfCompletedMessage(t *testing.T) {
	m := Message{Kind: Mcast, Src: 2, Payload: bytes.Repeat([]byte{7}, 2500)}
	frags := Split(m, 5, 1000)
	var r Reassembler
	for _, f := range frags {
		if _, done, err := r.Add(f); err != nil {
			t.Fatal(err)
		} else if done && r.Pending() != 0 {
			t.Fatal("pending state after completion")
		}
	}
	// A stray repair fragment of the completed id is absorbed silently.
	if _, done, err := r.Add(frags[1]); err != nil || done {
		t.Fatalf("stray repair fragment: done=%v err=%v", done, err)
	}
	if r.Pending() != 0 {
		t.Fatalf("stray repair resurrected %d partial messages", r.Pending())
	}
	// A receiver that lost everything completes from a full repair under
	// the same id (its watermark has not advanced past it).
	var fresh Reassembler
	for i, f := range frags {
		got, done, err := fresh.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if i == len(frags)-1 {
			if !done || !bytes.Equal(got.Payload, m.Payload) {
				t.Fatal("full repair did not complete the message")
			}
		}
	}
}

func TestReassemblerPendingFrom(t *testing.T) {
	var r Reassembler // Add takes no arrival time: the times read zero, the rest works
	if _, _, _, ok := r.PendingFrom(3); ok {
		t.Fatal("empty reassembler reports pending state")
	}
	older := Split(Message{Kind: Mcast, Src: 3, Payload: make([]byte, 3000)}, 8, 1000)
	newer := Split(Message{Kind: Mcast, Src: 3, Payload: make([]byte, 3000)}, 9, 1000)
	if _, _, err := r.Add(older[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Add(newer[2]); err != nil {
		t.Fatal(err)
	}
	msgID, missing, seen, ok := r.PendingFrom(3)
	if !ok || msgID != 9 {
		t.Fatalf("PendingFrom = %d/%v, want the newest partial (9)", msgID, ok)
	}
	if len(missing) != 2 || missing[0] != 0 || missing[1] != 1 {
		t.Fatalf("missing = %v, want [0 1]", missing)
	}
	if want := (Arrivals{Got: 1}); seen != want || seen.Gap() != 0 {
		t.Fatalf("arrivals without a clock = %+v, want %+v", seen, want)
	}
	if _, _, _, ok := r.PendingFrom(4); ok {
		t.Fatal("wrong source reports pending state")
	}
}

// TestReassemblerPendingFromAfterCompletion: once the newest partial
// multicast of a source completes, the next newest is reported, and none
// once every partial of the source has.
func TestReassemblerPendingFromAfterCompletion(t *testing.T) {
	var r Reassembler
	older := Split(Message{Kind: Mcast, Src: 3, Payload: make([]byte, 3000)}, 8, 1000)
	newer := Split(Message{Kind: Mcast, Src: 3, Payload: make([]byte, 2000)}, 9, 1000)
	other := Split(Message{Kind: Mcast, Src: 4, Payload: make([]byte, 2000)}, 10, 1000)
	for _, f := range []Fragment{older[0], newer[0], other[0], newer[1]} {
		if _, _, err := r.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if id, missing, _, ok := r.PendingFrom(3); !ok || id != 8 || len(missing) != 2 {
		t.Fatalf("after the newest completed: PendingFrom = %d/%v missing %v, want 8 missing [1 2]", id, ok, missing)
	}
	for _, f := range older[1:] {
		if _, _, err := r.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	if id, _, _, ok := r.PendingFrom(3); ok {
		t.Fatalf("every partial of source 3 completed, PendingFrom still reports %d", id)
	}
	if id, _, _, ok := r.PendingFrom(4); !ok || id != 10 {
		t.Fatalf("source 4's partial reads %d/%v, want 10", id, ok)
	}
}

// TestReassemblerStampsArrivals: given arrival times, a partial carries
// how many fragments arrived and when the first and the latest did; a
// duplicate adds nothing, a p2p partial is not reported, and the stamps
// belong to the message, so the sender's next one starts its own.
func TestReassemblerStampsArrivals(t *testing.T) {
	var r Reassembler
	frags := Split(Message{Kind: Mcast, Src: 3, Payload: make([]byte, 5000)}, 8, 1000)
	for _, step := range []struct {
		at   int64
		idx  int
		want Arrivals
	}{
		{100, 0, Arrivals{1, 100, 100}},
		{220, 2, Arrivals{2, 100, 220}},
		{300, 2, Arrivals{2, 100, 220}}, // duplicate
		{340, 3, Arrivals{3, 100, 340}},
	} {
		if _, _, done, err := r.Accept(frags[step.idx], step.at); err != nil || done {
			t.Fatalf("Add(fragment %d) = done %v, err %v", step.idx, done, err)
		}
		if _, _, seen, ok := r.PendingFrom(3); !ok || seen != step.want {
			t.Fatalf("t=%d: arrivals %+v (ok %v), want %+v", step.at, seen, ok, step.want)
		}
	}
	if _, _, seen, _ := r.PendingFrom(3); seen.Gap() != 120 {
		t.Fatalf("gap over %+v = %d, want 120", seen, seen.Gap())
	}
	next := Split(Message{Kind: Mcast, Src: 3, Payload: make([]byte, 2000)}, 9, 1000)
	if _, _, _, err := r.Accept(next[1], 900); err != nil {
		t.Fatal(err)
	}
	if id, _, seen, _ := r.PendingFrom(3); id != 9 || seen != (Arrivals{1, 900, 900}) {
		t.Fatalf("the next message reads %d/%+v, want its own stamps", id, seen)
	}
	p2p := Split(Message{Kind: P2P, Src: 5, Payload: make([]byte, 2000)}, 4, 1000)
	if _, _, err := r.Add(p2p[0]); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := r.PendingFrom(5); ok {
		t.Fatal("a point-to-point partial was reported as a pending multicast")
	}
}

func TestAppendFragmentMatchesEncode(t *testing.T) {
	f := Fragment{
		Msg: Message{
			Kind: P2P, Comm: 7, Src: 3, Tag: -2, Seq: 9,
			Class: ClassData, Reliable: true, Payload: []byte("payload bytes"),
		},
		MsgID: 42, Index: 1, Count: 3,
		TotalLen: 40, Offset: 13, Stream: 5,
	}
	want := EncodeFragment(f)
	scratch := make([]byte, 0, HeaderLen+len(f.Msg.Payload))
	got := AppendFragment(scratch, f)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFragment = %x, want %x", got, want)
	}
	// Appending after existing content must leave it intact.
	prefixed := AppendFragment([]byte("abc"), f)
	if !bytes.Equal(prefixed[:3], []byte("abc")) || !bytes.Equal(prefixed[3:], want) {
		t.Fatal("AppendFragment corrupted the destination prefix")
	}
}

// The encode path runs once per frame on every transport; pin it to zero
// allocations when the caller reuses its scratch buffer.
func TestAppendFragmentAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates inside AppendFragment; the zero-alloc pin only holds for production builds")
	}
	f := Fragment{
		Msg:   Message{Kind: Mcast, Comm: 1, Src: 2, Payload: make([]byte, 1400)},
		MsgID: 7, Index: 0, Count: 1, TotalLen: 1400,
	}
	buf := make([]byte, 0, HeaderLen+len(f.Msg.Payload))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendFragment(buf[:0], f)
	})
	if allocs != 0 {
		t.Fatalf("AppendFragment into reused buffer: %.1f allocs/frame, want 0", allocs)
	}
}

// TestGroupDerivationDomainSeparation pins the multicast group address
// derivation against collisions between the three address families a
// communicator uses at once: raw contexts, per-slice groups (0x5C
// domain separator) and per-segment groups (0x5E). The derivations are
// pure functions, so this is a deterministic pin: across a grid of
// contexts (including the separator bytes themselves and the world
// context's neighbourhood) and 64 indices per family, every derived id
// must clear the reserved world range (id > 1), never equal a sampled
// raw context, and never equal any other derived id in the grid —
// i.e. both negative-tag-space families stay disjoint from each other
// and from whole-communicator addressing for every (ctx, index) a
// realistic topology can produce.
func TestGroupDerivationDomainSeparation(t *testing.T) {
	ctxs := []uint32{0, 1, 2, 3, 0x5C, 0x5E, 0x5C5C5C5C, 0x5E5E5E5E,
		1 << 8, 1 << 16, 1 << 24, 0xDEADBEEF, 0xFFFFFFFF}
	rawCtx := make(map[uint32]bool, len(ctxs))
	for _, ctx := range ctxs {
		rawCtx[ctx] = true
	}
	seen := make(map[uint32]string, 2*64*len(ctxs))
	for _, ctx := range ctxs {
		for i := 0; i < 64; i++ {
			for _, d := range []struct {
				family string
				id     uint32
			}{
				{"slice", SliceGroup(ctx, i)},
				{"segment", SegmentGroup(ctx, i)},
			} {
				key := fmt.Sprintf("%s(ctx=%#x, %d)", d.family, ctx, i)
				if d.id <= 1 {
					t.Errorf("%s = %d intrudes on the reserved world range", key, d.id)
				}
				if rawCtx[d.id] {
					t.Errorf("%s = %#x collides with a raw context id", key, d.id)
				}
				if prev, ok := seen[d.id]; ok {
					t.Errorf("%s = %#x collides with %s", key, d.id, prev)
				}
				seen[d.id] = key
			}
		}
	}
}
