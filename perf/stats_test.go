package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1} // unsorted on purpose
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{ten, 25, 3}, // ceil(2.5) = 3rd smallest
		{ten, 50, 5}, // ceil(5) = 5th
		{ten, 90, 9}, // ceil(9) = 9th
		{ten, 100, 10},
		{ten, 0, 1}, // rank clamps to the minimum
		{[]float64{4, 1, 3, 2}, 25, 1},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 75, 3},
		{[]float64{7}, 25, 7},
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 25, 2}, // ceil(1.75) = 2nd
		{[]float64{1, 2, 3, 4, 5, 6, 7}, 90, 7}, // ceil(6.3) = 7th
		{nil, 50, 0},
	} {
		if got := percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(ten, []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}) {
		t.Error("percentile reordered its input")
	}
}

func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, // 19 x 0.5 = 9.5 beyond the median: not ten
		{20, 50},
		{39, 50}, {40, 75}, // 40 x 0.25 = 10
		{99, 75}, {100, 90}, // 100 x 0.10 = 10
		{150, 90}, // 150 x 0.05 = 7.5
		{199, 90}, {200, 95},
		{999, 95}, {1000, 99},
	} {
		if got := supportedTail(tc.n); got != tc.want {
			t.Errorf("supportedTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	for _, tc := range []struct {
		name     string
		parent   interval
		children []interval
		want     int // ms
	}{
		{"no children", ms(0, 100), nil, 100},
		{"disjoint", ms(0, 100), []interval{ms(10, 20), ms(50, 80)}, 60},
		{"overlapping count once", ms(0, 100), []interval{ms(10, 40), ms(30, 60)}, 50},
		{"nested child", ms(0, 100), []interval{ms(10, 90), ms(20, 30)}, 20},
		{"unsorted", ms(0, 100), []interval{ms(50, 80), ms(10, 20)}, 60},
		{"overhang is clipped", ms(10, 100), []interval{ms(0, 20), ms(90, 200)}, 70},
		{"outside entirely", ms(10, 20), []interval{ms(0, 5), ms(30, 40)}, 10},
		{"fully covered", ms(0, 100), []interval{ms(0, 60), ms(60, 100)}, 0},
		{"identical twins", ms(0, 100), []interval{ms(20, 70), ms(20, 70)}, 50},
	} {
		if got := selfTime(tc.parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: selfTime = %v, want %d ms", tc.name, got, tc.want)
		}
	}
}

func TestLanes(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	// Two sequential callers interleaved, then a third that overlaps both.
	got := lanes([]interval{ms(0, 10), ms(5, 15), ms(10, 20), ms(15, 25), ms(16, 18), ms(25, 30)})
	want := []int{0, 1, 0, 1, 2, 0}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lanes = %v, want %v", got, want)
	}
}
