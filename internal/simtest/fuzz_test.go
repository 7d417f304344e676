package simtest

import (
	"encoding/binary"
	"testing"
)

// FuzzScenario feeds arbitrary bytes through the shared scenario
// decoder and runs the full logic battery on whatever configuration
// falls out: the fuzzer explores knob combinations (workload x
// eDmax mode x refinement x queue model) far faster than
// the seed sweep's uniform sampling does. Any crash or oracle
// violation minimizes to a corpus entry whose first 8 bytes are the
// seed.
func FuzzScenario(f *testing.F) {
	seedBytes := func(seed uint64, rest ...byte) []byte {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed)
		return append(b[:], rest...)
	}
	f.Add(seedBytes(1))
	f.Add(seedBytes(2, 3, 1, 2, 40, 0, 1, 0)) // self-join, (reserved), eDmax over, small k, tight queue, refined
	f.Add(seedBytes(15))
	f.Add(seedBytes(7, 0, 2, 1, 9, 3, 0, 1)) // uniform, (reserved), under, model-free queue
	f.Fuzz(func(t *testing.T, data []byte) {
		s := FromBytes(data)
		if err := Check(s); err != nil {
			t.Fatal(err)
		}
	})
}
