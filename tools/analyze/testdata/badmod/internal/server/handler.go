// Package server is a deliberately non-compliant serving package: the
// e2e test runs `go vet -vettool` with the built pimento-analyze
// binary over this module and asserts the violations below surface
// with the right analyzer names.
package server

import (
	"context"
	"time"
)

// Handle fabricates a context on a serving path (ctxbg).
func Handle() context.Context {
	return context.Background()
}

// SpawnWorker starts an unbudgeted goroutine (budgetedgo).
func SpawnWorker(work func()) {
	go work()
}

// RequestCacheKey folds the clock into a cache key (nowfree).
func RequestCacheKey(q string) int64 {
	return time.Now().UnixNano() + int64(len(q))
}
