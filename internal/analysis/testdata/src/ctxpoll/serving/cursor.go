// Package serving is the ctxpoll golden fixture for the cursor page
// loops: engine iterator drains with and without the poll, and the
// page-bounded annotation.
package serving

import (
	"context"

	"distjoin"
)

type cursor struct {
	it  *distjoin.Iterator
	ctx context.Context
}

func (c *cursor) badPageFill(n int) []distjoin.Pair {
	var pairs []distjoin.Pair
	for len(pairs) < n { // want "drains distjoin.Iterator.Next without polling cancellation"
		p, ok := c.it.Next()
		if !ok {
			break
		}
		pairs = append(pairs, p)
	}
	return pairs
}

func (c *cursor) goodPolledFill(n int) ([]distjoin.Pair, error) {
	var pairs []distjoin.Pair
	for len(pairs) < n {
		if err := c.ctx.Err(); err != nil {
			return pairs, err
		}
		p, ok := c.it.Next()
		if !ok {
			break
		}
		pairs = append(pairs, p)
	}
	return pairs, nil
}

// allowedBounded mirrors the real cursor.pull: bounded by the page
// size, with the engine iterator polling Options.Context internally.
//
//lint:allow ctxpoll fixture demonstrates the page-bounded annotation
func (c *cursor) allowedBounded(n int) int {
	got := 0
	for got < n {
		if _, ok := c.it.Next(); !ok {
			break
		}
		got++
	}
	return got
}
