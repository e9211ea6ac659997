package transport

import (
	"bytes"
	"testing"
)

// The fuzz targets guard the wire boundary: every byte string a socket
// can deliver must either decode into a structurally valid value or
// return ErrBadPacket — never panic, never over-read, and never produce
// a value that violates the invariants the rest of the stack assumes
// (index < count, fragment inside the message body). Whatever decodes
// must survive a re-encode/re-decode round trip unchanged, so the two
// transports cannot drift apart on interpretation.

func FuzzDecodeFragment(f *testing.F) {
	seed := func(fr Fragment) {
		f.Add(EncodeFragment(fr))
	}
	seed(Fragment{
		Msg:   Message{Kind: P2P, Src: 3, Comm: 1, Tag: -7, Seq: 9, Class: ClassData, Reliable: true, Payload: []byte("hello")},
		MsgID: 42, Index: 0, Count: 1, TotalLen: 5,
	})
	seed(Fragment{
		Msg:   Message{Kind: Mcast, Src: 0, Comm: 0xDEAD, Tag: 12, Class: ClassScout, Payload: []byte("fragment two of three")},
		MsgID: 7, Index: 1, Count: 3, TotalLen: 64, Offset: 21,
	})
	seed(Fragment{
		Msg:   Message{Kind: P2P, Src: 1, Class: ClassStream, Payload: []byte{1, 0, 0, 0, 5}},
		MsgID: 3, Index: 0, Count: 1, TotalLen: 5, Stream: 17, Ctl: true,
	})
	seed(Fragment{
		Msg:   Message{Kind: Mcast, Src: 0, Comm: 1, Seq: 3, Class: ClassData, Payload: []byte("sent a second time")},
		MsgID: 7, Index: 6, Count: 14, TotalLen: 20000, Offset: 8544, Repair: true,
	})
	f.Add([]byte{})                              // too short
	f.Add(bytes.Repeat([]byte{0x4D}, HeaderLen)) // right length, bad magic

	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := DecodeFragment(b)
		if err != nil {
			return
		}
		if fr.Count == 0 || fr.Index >= fr.Count {
			t.Fatalf("decoded invalid fragment %d/%d", fr.Index, fr.Count)
		}
		if int(fr.Offset)+len(fr.Msg.Payload) > int(fr.TotalLen) {
			t.Fatalf("decoded fragment overflows message: offset %d + %d bytes > total %d",
				fr.Offset, len(fr.Msg.Payload), fr.TotalLen)
		}
		enc := EncodeFragment(fr)
		fr2, err := DecodeFragment(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoded fragment failed: %v", err)
		}
		if !bytes.Equal(fr2.Msg.Payload, fr.Msg.Payload) {
			t.Fatalf("payload changed across round trip")
		}
		if fr.Msg.Kind != fr2.Msg.Kind || fr.Msg.Class != fr2.Msg.Class ||
			fr.Msg.Reliable != fr2.Msg.Reliable || fr.Msg.Comm != fr2.Msg.Comm ||
			fr.Msg.Src != fr2.Msg.Src || fr.Msg.Tag != fr2.Msg.Tag || fr.Msg.Seq != fr2.Msg.Seq ||
			fr.MsgID != fr2.MsgID || fr.Index != fr2.Index || fr.Count != fr2.Count ||
			fr.TotalLen != fr2.TotalLen || fr.Offset != fr2.Offset ||
			fr.Stream != fr2.Stream || fr.Ctl != fr2.Ctl || fr.Repair != fr2.Repair {
			t.Fatalf("fragment changed across round trip:\n %+v\n %+v", fr, fr2)
		}
	})
}

func FuzzDecodeRepairReq(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(EncodeRepairReq(0, nil))
	f.Add(EncodeRepairReq(99, []int{0, 2, 5}))
	f.Add(EncodeRepairReq(1<<40, []int{65535}))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 9}) // names 9 indexes, holds none

	f.Fuzz(func(t *testing.T, b []byte) {
		msgID, missing, err := DecodeRepairReq(b)
		if err != nil {
			return
		}
		if len(missing) > 0xFFFF {
			t.Fatalf("decoded %d missing indexes from a 16-bit count", len(missing))
		}
		id2, miss2, err := DecodeRepairReq(EncodeRepairReq(msgID, missing))
		if err != nil {
			t.Fatalf("re-decode of re-encoded repair request failed: %v", err)
		}
		if id2 != msgID || len(miss2) != len(missing) {
			t.Fatalf("repair request changed across round trip: (%d, %v) vs (%d, %v)",
				msgID, missing, id2, miss2)
		}
		for i := range missing {
			if miss2[i] != missing[i] {
				t.Fatalf("missing index %d changed across round trip", i)
			}
		}
	})
}
