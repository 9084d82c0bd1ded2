package unionfind

import "testing"

func TestUnionFind(t *testing.T) {
	d := New(6)
	for i := 0; i < 6; i++ {
		if d.Find(i) != i {
			t.Fatalf("fresh DSU: Find(%d)=%d", i, d.Find(i))
		}
	}
	if !d.Union(0, 1) || !d.Union(1, 2) {
		t.Fatal("Union of disjoint sets returned false")
	}
	if d.Union(0, 2) {
		t.Fatal("Union of joined sets returned true")
	}
	if d.Find(0) != d.Find(2) || d.Find(0) == d.Find(3) {
		t.Fatal("Find roots wrong")
	}
	// Merge everything and confirm a single set remains.
	for i := 0; i < 5; i++ {
		d.Union(i, i+1)
	}
	for i := 1; i < 6; i++ {
		if d.Find(i) != d.Find(0) {
			t.Fatalf("element %d outside the merged set", i)
		}
	}
}
