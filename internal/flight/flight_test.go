package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCoalesce: concurrent identical requests run fn exactly once and all
// observe the same value.
func TestCoalesce(t *testing.T) {
	var c Cell[int]
	var calls atomic.Int32
	started := make(chan struct{})
	release := make(chan struct{})
	const waiters = 16

	var wg sync.WaitGroup
	results := make([]int, waiters)
	go func() {
		c.Do(context.Background(), func(context.Context) (int, error) {
			calls.Add(1)
			close(started)
			<-release
			return 42, nil
		})
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(context.Background(), func(context.Context) (int, error) {
				calls.Add(1)
				return -1, nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	close(release)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Errorf("waiter %d got %d, want 42", i, v)
		}
	}
	if v, ok, err := c.Peek(); !ok || v != 42 || err != nil {
		t.Errorf("Peek after a cached success: %d, %v, %v", v, ok, err)
	}
}

// TestErrorCached: a deterministic failure is memoized; fn is not retried.
func TestErrorCached(t *testing.T) {
	var c Cell[int]
	var calls int
	boom := errors.New("boom")
	for i := 0; i < 3; i++ {
		_, err := c.Do(context.Background(), func(context.Context) (int, error) {
			calls++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("got %v, want boom", err)
		}
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1 (errors are cached)", calls)
	}
	if _, ok, err := c.Peek(); !ok || !errors.Is(err, boom) {
		t.Errorf("Peek after a cached error: %v, %v", ok, err)
	}
}

// TestTransientNotCached: ErrTransient outcomes reset the cell so the next
// caller retries.
func TestTransientNotCached(t *testing.T) {
	var c Cell[int]
	calls := 0
	_, err := c.Do(context.Background(), func(context.Context) (int, error) {
		calls++
		return 0, fmt.Errorf("%w: out of capacity", ErrTransient)
	})
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("got %v", err)
	}
	if _, ok, _ := c.Peek(); ok {
		t.Fatal("transient outcome was cached")
	}
	v, err := c.Do(context.Background(), func(context.Context) (int, error) {
		calls++
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("retry got (%d, %v)", v, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

// TestCancelledRunnerNotCached: a runner that returns ctx.Err() resets the
// cell, and a live waiter retries and becomes the new runner.
func TestCancelledRunnerNotCached(t *testing.T) {
	var c Cell[int]
	runnerCtx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var second atomic.Int32

	go func() {
		c.Do(runnerCtx, func(ctx context.Context) (int, error) {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		})
	}()
	<-started

	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := c.Do(context.Background(), func(context.Context) (int, error) {
			second.Add(1)
			return 99, nil
		})
		if err != nil || v != 99 {
			t.Errorf("waiter after cancel got (%d, %v), want (99, nil)", v, err)
		}
	}()
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter did not retry after the runner was cancelled")
	}
	if second.Load() != 1 {
		t.Fatalf("retry ran %d times, want 1", second.Load())
	}
}

// TestWaiterContext: a waiter whose own context expires leaves without
// disturbing the in-flight run.
func TestWaiterContext(t *testing.T) {
	var c Cell[int]
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		c.Do(context.Background(), func(context.Context) (int, error) {
			close(started)
			<-release
			return 5, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Do(ctx, func(context.Context) (int, error) { return -1, nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("expired waiter got %v, want context.Canceled", err)
	}
	close(release)
	if v, err := c.Do(context.Background(), nil); err != nil || v != 5 {
		// nil fn is fine here: the cached outcome means fn is never called.
		t.Fatalf("cached read got (%d, %v), want (5, nil)", v, err)
	}
}
