// Package join is the ctxpoll golden fixture: queue- and
// iterator-draining loops with and without the cancellation poll.
package join

import (
	"distjoin/internal/extsort"
	"distjoin/internal/hybridq"
)

type execContext struct {
	queue *hybridq.Queue
}

func (c *execContext) cancelled() error { return nil }

func (c *execContext) badQueueDrain() {
	for { // want "drains hybridq.Queue.Pop without polling cancellation"
		_, ok := c.queue.Pop()
		if !ok {
			break
		}
	}
}

func (c *execContext) badPeekDrain(cur float64) {
	for cur > 0 { // want "drains hybridq.Queue.Peek without polling cancellation"
		p, ok := c.queue.Peek()
		if !ok {
			break
		}
		cur = p.Dist
	}
}

func (c *execContext) badIteratorDrain(it *extsort.Iterator[int], k int) []int {
	out := make([]int, 0, k)
	for len(out) < k { // want "drains extsort Next without polling cancellation"
		v, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, v)
	}
	return out
}

func (c *execContext) goodPolledDrain() error {
	for {
		if err := c.cancelled(); err != nil {
			return err
		}
		_, ok := c.queue.Pop()
		if !ok {
			return nil
		}
	}
}

// goodBounded mirrors the real page fills: bounded by construction.
//
//lint:allow ctxpoll fixture demonstrates a loop bounded by its count n
func (c *execContext) goodBounded(n int) {
	for i := 0; i < n; i++ {
		_, ok := c.queue.Peek()
		if !ok {
			break
		}
	}
}

func (c *execContext) goodNoDrain(total int) int {
	sum := 0
	for i := 0; i < total; i++ {
		sum += i
	}
	return sum
}
