package campaign

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// Map computes f(0), ..., f(n-1) on up to workers goroutines (at least
// one) and returns the results in input order, so output built from
// them is identical for any worker count when each f(i) depends only
// on i. Workers claim indices in increasing order and claim no more
// once an f has failed; an index claimed after ctx is done does not
// run and reports an error wrapping ctx.Err(). On failure Map returns
// the results of the indices below the lowest failing one, all of
// which succeeded, and that index's error.
func Map[T any](ctx context.Context, workers, n int, f func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	workers = min(max(workers, 1), n)
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopped.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = fmt.Errorf("campaign: index %d not started: %w", i, err)
				} else {
					out[i], errs[i] = f(i)
				}
				if errs[i] != nil {
					stopped.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return out[:i], err
		}
	}
	return out, nil
}
