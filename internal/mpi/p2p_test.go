package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/mpi"
	"repro/internal/transport"
)

// run2 executes a two-rank program over MemNet.
func run2(t *testing.T, f0, f1 func(c *mpi.Comm) error) {
	t.Helper()
	err := mpi.RunMem(2, mpi.Algorithms{}, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			return f0(c)
		}
		return f1(c)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvBasic(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			return c.Send(1, 7, []byte("hello"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 16)
			st, err := c.Recv(0, 7, buf)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 7 || st.Len != 5 {
				return fmt.Errorf("status = %+v", st)
			}
			if string(buf[:st.Len]) != "hello" {
				return fmt.Errorf("payload = %q", buf[:st.Len])
			}
			return nil
		})
}

func TestRecvWildcards(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			return c.Send(1, 42, []byte("w"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 4)
			st, err := c.Recv(mpi.AnySource, mpi.AnyTag, buf)
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 42 {
				return fmt.Errorf("wildcard status = %+v", st)
			}
			return nil
		})
}

func TestTagSelectivityAndUnexpectedQueue(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			// Send tag 1 first, then tag 2. Receiver asks for tag 2
			// first: tag 1 must wait in the unexpected queue.
			if err := c.Send(1, 1, []byte("first")); err != nil {
				return err
			}
			return c.Send(1, 2, []byte("second"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 16)
			st, err := c.Recv(0, 2, buf)
			if err != nil {
				return err
			}
			if string(buf[:st.Len]) != "second" {
				return fmt.Errorf("tag 2 got %q", buf[:st.Len])
			}
			st, err = c.Recv(0, 1, buf)
			if err != nil {
				return err
			}
			if string(buf[:st.Len]) != "first" {
				return fmt.Errorf("tag 1 got %q", buf[:st.Len])
			}
			if c.Runtime().UnexpectedDepth() != 0 {
				return fmt.Errorf("unexpected queue not drained: %d", c.Runtime().UnexpectedDepth())
			}
			return nil
		})
}

func TestPairwiseOrderingSameTag(t *testing.T) {
	const n = 20
	run2(t,
		func(c *mpi.Comm) error {
			for i := 0; i < n; i++ {
				if err := c.Send(1, 5, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				if _, err := c.Recv(0, 5, buf); err != nil {
					return err
				}
				if buf[0] != byte(i) {
					return fmt.Errorf("message %d out of order (got %d)", i, buf[0])
				}
			}
			return nil
		})
}

func TestRecvTruncation(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			return c.Send(1, 1, []byte("0123456789"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 4)
			st, err := c.Recv(0, 1, buf)
			if !errors.Is(err, mpi.ErrTruncated) {
				return fmt.Errorf("err = %v, want ErrTruncated", err)
			}
			if st.Len != 10 {
				return fmt.Errorf("status len = %d, want 10", st.Len)
			}
			if string(buf) != "0123" {
				return fmt.Errorf("truncated data = %q", buf)
			}
			return nil
		})
}

func TestSendInvalidArgs(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			if err := c.Send(9, 0, nil); !errors.Is(err, mpi.ErrInvalidRank) {
				return fmt.Errorf("send to rank 9: %v", err)
			}
			if err := c.Send(1, -3, nil); !errors.Is(err, mpi.ErrInvalidTag) {
				return fmt.Errorf("negative tag: %v", err)
			}
			if _, err := c.Recv(7, 0, nil); !errors.Is(err, mpi.ErrInvalidRank) {
				return fmt.Errorf("recv from rank 7: %v", err)
			}
			if _, err := c.Recv(mpi.AnySource, -9, nil); !errors.Is(err, mpi.ErrInvalidTag) {
				return fmt.Errorf("recv negative tag: %v", err)
			}
			return c.Send(1, 0, nil) // unblock peer
		},
		func(c *mpi.Comm) error {
			_, err := c.Recv(0, 0, nil)
			return err
		})
}

func TestSendRecvExchange(t *testing.T) {
	err := mpi.RunMem(4, mpi.Algorithms{}, func(c *mpi.Comm) error {
		partner := c.Rank() ^ 1
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		st, err := c.SendRecv(partner, 3, out, partner, 3, in)
		if err != nil {
			return err
		}
		if st.Source != partner || in[0] != byte(partner) {
			return fmt.Errorf("rank %d exchange got %d from %d", c.Rank(), in[0], st.Source)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessagesSeparatedByComm(t *testing.T) {
	// A message on a dup'ed communicator must not match a receive on the
	// parent even with identical source and tag.
	err := mpi.RunMem(2, mpi.Algorithms{}, func(c *mpi.Comm) error {
		dup, err := c.Dup()
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			if err := dup.Send(1, 5, []byte("dup")); err != nil {
				return err
			}
			return c.Send(1, 5, []byte("world"))
		}
		buf := make([]byte, 8)
		st, err := c.Recv(0, 5, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Len]) != "world" {
			return fmt.Errorf("world comm recv got %q", buf[:st.Len])
		}
		st, err = dup.Recv(0, 5, buf)
		if err != nil {
			return err
		}
		if string(buf[:st.Len]) != "dup" {
			return fmt.Errorf("dup comm recv got %q", buf[:st.Len])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargePayloadRoundTrip(t *testing.T) {
	want := bytes.Repeat([]byte{0xAB, 0xCD}, 50_000)
	run2(t,
		func(c *mpi.Comm) error {
			return c.Send(1, 0, want)
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, len(want))
			st, err := c.Recv(0, 0, buf)
			if err != nil {
				return err
			}
			if st.Len != len(want) || !bytes.Equal(buf, want) {
				return errors.New("large payload corrupted")
			}
			return nil
		})
}

func TestUserRecvNeverMatchesCollectiveTraffic(t *testing.T) {
	// A barrier's internal messages must be invisible to wildcard user
	// receives issued after it.
	err := mpi.RunMem(2, baseline.Algorithms(), func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return c.Send(1, 9, []byte("user"))
		}
		buf := make([]byte, 8)
		st, err := c.Recv(mpi.AnySource, mpi.AnyTag, buf)
		if err != nil {
			return err
		}
		if st.Tag != 9 || string(buf[:st.Len]) != "user" {
			return fmt.Errorf("wildcard matched non-user traffic: %+v %q", st, buf[:st.Len])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWorldRankMapping(t *testing.T) {
	err := mpi.RunMem(3, mpi.Algorithms{}, func(c *mpi.Comm) error {
		if c.Size() != 3 {
			return fmt.Errorf("size = %d", c.Size())
		}
		if c.WorldRank(c.Rank()) != c.Rank() {
			return errors.New("world comm rank mapping not identity")
		}
		if c.Context() != mpi.WorldContext {
			return fmt.Errorf("context = %d", c.Context())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var _ = transport.Message{} // keep the import for test helpers below
