package metrics

import (
	"testing"
	"time"

	"distjoin/internal/niltest"
)

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	niltest.CallAll(t, c) // every method, present and future, must not panic
	c.Add(&Collector{})
	if c.DistCalcs() != 0 || c.QueueInserts() != 0 || c.ResponseTime() != 0 {
		t.Fatal("nil collector must report zeros")
	}
	if s := c.String(); s != "<nil metrics>" {
		t.Fatalf("nil String = %q", s)
	}
}

func TestCounters(t *testing.T) {
	c := &Collector{}
	c.AddRealDist(3)
	c.AddAxisDist(5)
	if c.DistCalcs() != 8 {
		t.Fatalf("DistCalcs = %d, want 8", c.DistCalcs())
	}
	c.AddMainQueueInsert(2)
	c.AddDistQueueInsert(1)
	c.AddCompQueueInsert(4)
	if c.QueueInserts() != 7 {
		t.Fatalf("QueueInserts = %d, want 7", c.QueueInserts())
	}
	c.NodeAccess(false, time.Millisecond)
	c.NodeAccess(true, time.Millisecond)
	if c.NodeAccessesLogical != 2 || c.NodeAccessesPhysical != 1 {
		t.Fatalf("node accesses = %d/%d, want 2/1", c.NodeAccessesLogical, c.NodeAccessesPhysical)
	}
	if c.ModeledIOTime != time.Millisecond {
		t.Fatalf("ModeledIOTime = %v, want 1ms", c.ModeledIOTime)
	}
}

func TestQueueAndSortIO(t *testing.T) {
	c := &Collector{}
	c.QueueIO(2, 3, time.Millisecond)
	c.SortIO(1, 1, 2*time.Millisecond)
	if c.QueuePageReads != 2 || c.QueuePageWrites != 3 {
		t.Fatalf("queue io = %d/%d", c.QueuePageReads, c.QueuePageWrites)
	}
	if c.SortPageReads != 1 || c.SortPageWrites != 1 {
		t.Fatalf("sort io = %d/%d", c.SortPageReads, c.SortPageWrites)
	}
	if want := 5*time.Millisecond + 4*time.Millisecond; c.ModeledIOTime != want {
		t.Fatalf("ModeledIOTime = %v, want %v", c.ModeledIOTime, want)
	}
}

func TestStartFinishWallTime(t *testing.T) {
	c := &Collector{}
	c.Start()
	time.Sleep(5 * time.Millisecond)
	c.Finish()
	if c.WallTime < time.Millisecond {
		t.Fatalf("WallTime = %v, want >= 1ms", c.WallTime)
	}
	if c.ResponseTime() != c.WallTime+c.ModeledIOTime {
		t.Fatal("ResponseTime must be wall + modeled IO")
	}
}

func TestFinishWithoutStart(t *testing.T) {
	c := &Collector{}
	c.Finish()
	if c.WallTime != 0 {
		t.Fatalf("WallTime = %v, want 0 when Start never called", c.WallTime)
	}
}

func TestAddAccumulates(t *testing.T) {
	a := &Collector{RealDistCalcs: 1, MainQueueInserts: 2, ModeledIOTime: time.Second}
	b := &Collector{RealDistCalcs: 10, MainQueueInserts: 20, ModeledIOTime: time.Second,
		CompensationStages: 1, ResultsProduced: 5}
	a.Add(b)
	if a.RealDistCalcs != 11 || a.MainQueueInserts != 22 {
		t.Fatalf("Add mismatch: %+v", a)
	}
	if a.ModeledIOTime != 2*time.Second {
		t.Fatalf("ModeledIOTime = %v", a.ModeledIOTime)
	}
	if a.CompensationStages != 1 || a.ResultsProduced != 5 {
		t.Fatalf("Add mismatch: %+v", a)
	}
}

func TestReset(t *testing.T) {
	c := &Collector{RealDistCalcs: 5}
	c.Reset()
	if c.RealDistCalcs != 0 {
		t.Fatal("Reset must zero counters")
	}
}

func TestIOCostModel(t *testing.T) {
	// 4096 bytes at 512 KB/s = 7.8125 ms per random page.
	if got, want := RandomPageCost, time.Duration(7.8125*float64(time.Millisecond)); got != want {
		t.Fatalf("RandomPageCost = %v, want %v", got, want)
	}
	// 4096 bytes at 5 MB/s = 0.78125 ms per sequential page.
	if got, want := SequentialPageCost, time.Duration(0.78125*float64(time.Millisecond)); got != want {
		t.Fatalf("SequentialPageCost = %v, want %v", got, want)
	}
}

func TestString(t *testing.T) {
	c := &Collector{RealDistCalcs: 1, AxisDistCalcs: 2}
	if s := c.String(); s == "" {
		t.Fatal("String must be non-empty")
	}
}
