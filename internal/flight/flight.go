// Package flight is the singleflight memoization primitive shared by the
// experiment suite (internal/exp) and the serving layer (internal/serve): a
// Cell is one content-addressed slot whose first caller computes the value
// while concurrent duplicates coalesce onto the same computation, and whose
// outcome — value or error — is cached for every later caller.
//
// Two outcome classes are deliberately NOT cached, because they describe the
// caller rather than the computation:
//
//   - context cancellation and deadline expiry (the run that was asked to
//     stop tells us nothing about the cell's value), and
//   - errors wrapping ErrTransient (capacity rejections, resource
//     exhaustion — conditions that clear on their own).
//
// When such a run finishes, the cell resets: coalesced waiters that are still
// interested retry and one of them becomes the new runner, so a cancelled
// client cannot poison the slot for everyone behind it. Deterministic
// failures (a program that cannot be adapted, a simulation that trips a
// checksum) stay cached — retrying them would only reproduce the failure.
package flight

import (
	"context"
	"errors"
	"sync"
)

// ErrTransient marks an error as non-cacheable: a Cell whose computation
// fails with an error wrapping ErrTransient resets instead of caching the
// failure, so later callers retry. Wrap with fmt.Errorf("%w: ...", ErrTransient).
var ErrTransient = errors.New("transient failure")

// uncacheable reports whether an outcome must not be memoized.
func uncacheable(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrTransient))
}

// Cacheable reports whether Do caches an outcome that ends with err.
func Cacheable(err error) bool { return !uncacheable(err) }

// run is one attempt at computing a cell's value. done is closed when val/err
// are final.
type run[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// Cell is a singleflight memoization slot. The zero Cell is ready to use; it
// must not be copied after first use.
type Cell[T any] struct {
	mu  sync.Mutex
	cur *run[T]
}

// Do returns the cell's value, computing it with fn if no prior computation
// is cached or in flight. Concurrent callers coalesce: exactly one runs fn
// (with its own ctx) and the rest wait for the outcome or for their own
// context, whichever finishes first. A waiter whose context expires returns
// ctx.Err() without disturbing the computation.
//
// If the runner's outcome is uncacheable — a context error or an error
// wrapping ErrTransient — the cell resets and surviving waiters retry, each
// eligible to become the next runner. Any other outcome is cached forever.
func (c *Cell[T]) Do(ctx context.Context, fn func(context.Context) (T, error)) (T, error) {
	for {
		c.mu.Lock()
		r := c.cur
		if r == nil {
			r = &run[T]{done: make(chan struct{})}
			c.cur = r
			c.mu.Unlock()
			r.val, r.err = fn(ctx)
			if uncacheable(r.err) {
				c.mu.Lock()
				if c.cur == r {
					c.cur = nil
				}
				c.mu.Unlock()
			}
			close(r.done)
			return r.val, r.err
		}
		c.mu.Unlock()
		select {
		case <-r.done:
			if uncacheable(r.err) {
				// The runner was cancelled or hit a transient condition;
				// its outcome says nothing about the value. Retry (the
				// cell has been reset, so the loop will find either a
				// fresh runner to join or an empty slot to claim).
				continue
			}
			return r.val, r.err
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
	}
}

// Done reports whether the cell holds a cached outcome: a computation that
// finished with a cacheable value or error. An in-flight run does not count.
// The answer is advisory — a concurrent Do may complete right after — but it
// is exact enough for cache-hit accounting.
func (c *Cell[T]) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return false
	}
	select {
	case <-c.cur.done:
		return !uncacheable(c.cur.err)
	default:
		return false
	}
}
