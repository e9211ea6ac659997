package trace

import (
	"fmt"
	"strings"
	"sync/atomic"

	"repro/internal/transport"
)

// numClasses sizes the per-class counter arrays. It must cover every
// transport.Class value; out-of-range classes (a corrupted frame, a
// future class this build does not know) are accumulated in the last
// slot rather than dropped or crashing.
const numClasses = int(transport.ClassStream) + 2

// clampClass maps a class to its counter slot.
func clampClass(class transport.Class) int {
	if int(class) >= numClasses {
		return numClasses - 1
	}
	return int(class)
}

// Counters accumulates per-class frame and byte counts. The zero value
// is ready to use, and all methods are safe for concurrent use: the
// simulator is single-threaded, but the wall-clock transports run one
// goroutine per rank and share one Counters per network.
type Counters struct {
	frames [numClasses]atomic.Int64
	bytes  [numClasses]atomic.Int64
}

// CountSend records frames wire frames totalling bytes payload bytes of
// the given class.
func (c *Counters) CountSend(class transport.Class, frames int, bytes int) {
	i := clampClass(class)
	c.frames[i].Add(int64(frames))
	c.bytes[i].Add(int64(bytes))
}

// Frames returns the frame count of class.
func (c *Counters) Frames(class transport.Class) int64 {
	return c.frames[clampClass(class)].Load()
}

// Bytes returns the payload byte count of class.
func (c *Counters) Bytes(class transport.Class) int64 {
	return c.bytes[clampClass(class)].Load()
}

// TotalFrames returns frames across all classes.
func (c *Counters) TotalFrames() int64 {
	var t int64
	for i := range c.frames {
		t += c.frames[i].Load()
	}
	return t
}

// Snapshot returns a copy for later Diff.
func (c *Counters) Snapshot() Snapshot {
	var s Snapshot
	for i := range c.frames {
		s.frames[i] = c.frames[i].Load()
		s.bytes[i] = c.bytes[i].Load()
	}
	return s
}

// Snapshot is an immutable copy of counters at a point in time.
type Snapshot struct {
	frames [numClasses]int64
	bytes  [numClasses]int64
}

// FramesSince returns the class frame count accumulated in c since s was
// taken.
func (c *Counters) FramesSince(s Snapshot, class transport.Class) int64 {
	i := clampClass(class)
	return c.frames[i].Load() - s.frames[i]
}

// BytesSince returns the class byte count accumulated since s.
func (c *Counters) BytesSince(s Snapshot, class transport.Class) int64 {
	i := clampClass(class)
	return c.bytes[i].Load() - s.bytes[i]
}

// String renders the counters sorted by class for logs and debugging.
func (c *Counters) String() string {
	var b strings.Builder
	first := true
	for i := range c.frames {
		f, by := c.frames[i].Load(), c.bytes[i].Load()
		if f == 0 && by == 0 {
			continue
		}
		if !first {
			b.WriteString(" ")
		}
		first = false
		fmt.Fprintf(&b, "%s=%df/%dB", transport.Class(i), f, by)
	}
	return b.String()
}

// FramesForMessage returns the number of network frames a message of
// size bytes needs when each frame carries at most frag payload bytes —
// the ceil(M/T) factor in the paper's formulas (one frame minimum). A
// non-positive frag means the device reported no fragmentation limit
// (it has no transport.Wire), so the message rides a single frame.
func FramesForMessage(size, frag int) int {
	if size <= 0 || frag <= 0 {
		return 1
	}
	return (size + frag - 1) / frag
}
