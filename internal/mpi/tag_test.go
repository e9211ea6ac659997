package mpi

import "testing"

// TestMcastTagSpacesDisjoint pins the per-message multicast tag-space
// partition that backs the group-address derivation's collision
// tolerance: even if two derived group ids were to collide on a real
// network, the receive match also compares tags, and the three
// multicast roles occupy provably disjoint tag ranges — the
// whole-communicator multicast at exactly 0, slice-scoped multicasts
// strictly positive, segment-scoped multicasts strictly negative. The
// collTagBase phase encoding lives in the negative space too, but only
// on point-to-point frames, and P2P and multicast kinds never
// cross-match.
func TestMcastTagSpacesDisjoint(t *testing.T) {
	if got := Whole.tag(); got != 0 {
		t.Errorf("whole-communicator multicast tag = %d, want 0", got)
	}
	for i := 0; i < 1<<16; i++ {
		if s := Slice(i).tag(); s < 1 {
			t.Fatalf("Slice(%d).tag() = %d escapes the positive space", i, s)
		}
		if g := Seg(i).tag(); g > -1 {
			t.Fatalf("Seg(%d).tag() = %d escapes the negative space", i, g)
		}
	}
	// The scout-phase P2P tags (collTagBase - phase) must stay negative
	// for every phase the engines use, so they can never alias a user
	// point-to-point tag (user tags are non-negative).
	for phase := 0; phase < 512; phase++ {
		if tag := collTagBase - int32(phase); tag >= 0 {
			t.Fatalf("collective phase %d maps to non-negative P2P tag %d", phase, tag)
		}
	}
}
