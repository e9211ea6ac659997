package mpi_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/baseline"
	"repro/internal/mpi"
)

func TestIsendIrecvBasic(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			req, err := c.Isend(1, 4, []byte("async"))
			if err != nil {
				return err
			}
			if !req.Done() {
				return errors.New("buffered isend should complete immediately")
			}
			_, err = req.Wait()
			return err
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 8)
			req, err := c.Irecv(0, 4, buf)
			if err != nil {
				return err
			}
			if req.Done() {
				return errors.New("irecv done before wait")
			}
			st, err := req.Wait()
			if err != nil {
				return err
			}
			if st.Source != 0 || st.Tag != 4 || string(buf[:st.Len]) != "async" {
				return fmt.Errorf("irecv got %+v %q", st, buf[:st.Len])
			}
			return nil
		})
}

func TestIrecvPostedBeforeSend(t *testing.T) {
	// The motivating overlap pattern: post receive early, compute, wait.
	run2(t,
		func(c *mpi.Comm) error {
			// Let rank 1 post first: wait for its go-ahead.
			if _, err := c.Recv(1, 9, nil); err != nil {
				return err
			}
			return c.Send(1, 5, []byte("late"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 4)
			req, err := c.Irecv(0, 5, buf)
			if err != nil {
				return err
			}
			if err := c.Send(0, 9, nil); err != nil {
				return err
			}
			st, err := req.Wait()
			if err != nil {
				return err
			}
			if string(buf[:st.Len]) != "late" {
				return fmt.Errorf("got %q", buf[:st.Len])
			}
			return nil
		})
}

func TestWaitallCompletesOutOfOrderArrivals(t *testing.T) {
	const n = 8
	run2(t,
		func(c *mpi.Comm) error {
			for i := n - 1; i >= 0; i-- { // send in reverse tag order
				if err := c.Send(1, i, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		},
		func(c *mpi.Comm) error {
			bufs := make([][]byte, n)
			reqs := make([]*mpi.Request, n)
			for i := 0; i < n; i++ {
				bufs[i] = make([]byte, 1)
				r, err := c.Irecv(0, i, bufs[i])
				if err != nil {
					return err
				}
				reqs[i] = r
			}
			if err := c.Waitall(reqs); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				if bufs[i][0] != byte(i) {
					return fmt.Errorf("request %d filled with %d", i, bufs[i][0])
				}
			}
			return nil
		})
}

func TestWaitTwiceErrors(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			return c.Send(1, 1, []byte("x"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 1)
			req, err := c.Irecv(0, 1, buf)
			if err != nil {
				return err
			}
			if _, err := req.Wait(); err != nil {
				return err
			}
			if _, err := req.Wait(); !errors.Is(err, mpi.ErrRequestDone) {
				return fmt.Errorf("second wait = %v, want ErrRequestDone", err)
			}
			return nil
		})
}

func TestIrecvInvalidArgs(t *testing.T) {
	err := mpi.RunMem(2, mpi.Algorithms{}, func(c *mpi.Comm) error {
		if _, err := c.Irecv(9, 0, nil); !errors.Is(err, mpi.ErrInvalidRank) {
			return fmt.Errorf("irecv rank 9: %v", err)
		}
		if _, err := c.Irecv(0, -2, nil); !errors.Is(err, mpi.ErrInvalidTag) {
			return fmt.Errorf("irecv tag -2: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvTruncation(t *testing.T) {
	run2(t,
		func(c *mpi.Comm) error {
			return c.Send(1, 0, []byte("0123456789"))
		},
		func(c *mpi.Comm) error {
			buf := make([]byte, 3)
			req, err := c.Irecv(0, 0, buf)
			if err != nil {
				return err
			}
			st, err := req.Wait()
			if !errors.Is(err, mpi.ErrTruncated) {
				return fmt.Errorf("wait = %v, want ErrTruncated", err)
			}
			if st.Len != 10 || string(buf) != "012" {
				return fmt.Errorf("status %+v buf %q", st, buf)
			}
			return nil
		})
}

func TestHaloExchangeWithRequests(t *testing.T) {
	// The jacobi pattern rewritten with nonblocking ops: every interior
	// rank posts both halo receives, sends both halos, then waits.
	const n = 6
	err := mpi.RunMem(n, mpi.Algorithms{}, func(c *mpi.Comm) error {
		left, right := c.Rank()-1, c.Rank()+1
		var reqs []*mpi.Request
		lbuf, rbuf := make([]byte, 1), make([]byte, 1)
		if left >= 0 {
			r, err := c.Irecv(left, 0, lbuf)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		if right < n {
			r, err := c.Irecv(right, 0, rbuf)
			if err != nil {
				return err
			}
			reqs = append(reqs, r)
		}
		if left >= 0 {
			if err := c.Send(left, 0, []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		if right < n {
			if err := c.Send(right, 0, []byte{byte(c.Rank())}); err != nil {
				return err
			}
		}
		if err := c.Waitall(reqs); err != nil {
			return err
		}
		if left >= 0 && lbuf[0] != byte(left) {
			return fmt.Errorf("rank %d left halo = %d", c.Rank(), lbuf[0])
		}
		if right < n && rbuf[0] != byte(right) {
			return fmt.Errorf("rank %d right halo = %d", c.Rank(), rbuf[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanInclusivePrefix(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			send := mpi.Int64sToBytes([]int64{int64(c.Rank() + 1), 1})
			recv := make([]byte, len(send))
			if err := c.Scan(send, recv, mpi.Int64, mpi.OpSum); err != nil {
				return err
			}
			got := mpi.BytesToInt64s(recv)
			r := int64(c.Rank())
			wantA := (r + 1) * (r + 2) / 2 // 1+2+…+(rank+1)
			wantB := r + 1
			if got[0] != wantA || got[1] != wantB {
				return fmt.Errorf("rank %d scan = %v, want [%d %d]", c.Rank(), got, wantA, wantB)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestReduceScatterChunks(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5} {
		err := mpi.RunMem(n, baseline.Algorithms(), func(c *mpi.Comm) error {
			// Rank r contributes value r+1 to every chunk element.
			send := make([]byte, 0, 8*n)
			for chunk := 0; chunk < n; chunk++ {
				send = append(send, mpi.Int64sToBytes([]int64{int64((c.Rank() + 1) * (chunk + 1))})...)
			}
			recv := make([]byte, 8)
			if err := c.ReduceScatter(send, recv, mpi.Int64, mpi.OpSum); err != nil {
				return err
			}
			sumRanks := int64(n * (n + 1) / 2)
			want := sumRanks * int64(c.Rank()+1)
			if got := mpi.BytesToInt64s(recv)[0]; got != want {
				return fmt.Errorf("rank %d reduce-scatter = %d, want %d", c.Rank(), got, want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestScanBuffersMismatch(t *testing.T) {
	err := mpi.RunMem(1, baseline.Algorithms(), func(c *mpi.Comm) error {
		if err := c.Scan(make([]byte, 8), make([]byte, 4), mpi.Int64, mpi.OpSum); err == nil {
			return errors.New("scan accepted mismatched buffers")
		}
		if err := c.ReduceScatter(make([]byte, 4), make([]byte, 8), mpi.Int64, mpi.OpSum); err == nil {
			return errors.New("reduce-scatter accepted mismatched buffers")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var _ = bytes.Equal // reserved for payload comparisons in future tests
