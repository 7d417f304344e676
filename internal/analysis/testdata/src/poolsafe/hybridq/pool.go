// Package hybridq is the poolsafe golden fixture: get/put ownership,
// aliasing through fields and slices, double puts, escaped backing
// memory, put-and-bail error paths, and the holder indirection idiom.
package hybridq

import "sync"

type pairBuf struct{ items []int }

var pairPool sync.Pool

// getPairBuf / putPairBuf mirror the real pool helpers; the call-graph
// summaries mark them as get/put helpers.
func getPairBuf() *pairBuf {
	if b, _ := pairPool.Get().(*pairBuf); b != nil {
		return b
	}
	return &pairBuf{}
}

func putPairBuf(b *pairBuf) { pairPool.Put(b) }

func badUseAfterPut() int {
	buf := getPairBuf()
	buf.items = append(buf.items[:0], 1, 2, 3)
	putPairBuf(buf)
	return len(buf.items) // want "use of buf after it was returned to the pool"
}

func badAliasUse() int {
	buf := getPairBuf()
	items := buf.items
	putPairBuf(buf)
	return len(items) // want "use of items after it was returned to the pool"
}

func badDoublePut() {
	buf := getPairBuf()
	putPairBuf(buf)
	putPairBuf(buf) // want "returned to the pool twice"
}

type sink struct{ held []int }

func badEscapeThenPut(s *sink) {
	buf := getPairBuf()
	s.held = buf.items
	putPairBuf(buf) // want "backing memory escaped"
}

func badSendEscape(ch chan []int) {
	buf := getPairBuf()
	ch <- buf.items
	putPairBuf(buf) // want "backing memory escaped"
}

func goodCopyOut(s *sink) {
	buf := getPairBuf()
	s.held = append(s.held[:0], buf.items...)
	putPairBuf(buf)
}

type gauge struct{ last int }

// A scalar read out of the slab is a copy, not an alias: storing it
// elsewhere and using it after the put are both fine.
func goodScalarCopyOut(g *gauge) int {
	buf := getPairBuf()
	buf.items = append(buf.items[:0], 4, 5)
	top := buf.items[0]
	g.last = top
	putPairBuf(buf)
	return top
}

func goodPutOnErrorPath(fail bool) int {
	buf := getPairBuf()
	if fail {
		putPairBuf(buf)
		return 0
	}
	n := len(buf.items)
	putPairBuf(buf)
	return n
}

func goodLoopLocal(n int) {
	for i := 0; i < n; i++ {
		buf := getPairBuf()
		buf.items = buf.items[:0]
		putPairBuf(buf)
	}
}

// Page buffers travel in holder objects, the real putPageBuf idiom:
// the slice header is copied out and the slot nilled before the holder
// goes back, so the copy is owned by the caller, not the pool.
var holderPool sync.Pool

func goodHolderGet(size int) []byte {
	if h, _ := holderPool.Get().(*[]byte); h != nil {
		b := *h
		*h = nil
		holderPool.Put(h)
		if cap(b) >= size {
			return b[:size]
		}
	}
	return make([]byte, size)
}

// goodDeferredPut runs the put at function exit, after every use.
func goodDeferredPut() int {
	buf := getPairBuf()
	defer putPairBuf(buf)
	buf.items = append(buf.items[:0], 7)
	return len(buf.items)
}

//lint:allow poolsafe fixture demonstrates the annotation for a deliberate single-owner design
func allowedRetain(s *sink) {
	buf := getPairBuf()
	s.held = buf.items
	putPairBuf(buf)
}
