package cowpage

import (
	"slices"
	"sync"
	"testing"
)

// TestCloneSharesUntilWritten: a clone shares its parent's pages; a write on
// either side, the parent's included, copies the page first, so the other
// side reads what it held; a page written twice is copied once.
func TestCloneSharesUntilWritten(t *testing.T) {
	parent := New[[4]int]()
	for _, n := range []uint32{7, 1, 1 << 31} {
		parent.Writable(n, Copy[[4]int])[0] = int(n % 100)
	}
	shared := parent.At(1)
	child := parent.Clone()
	if child.At(1) != shared {
		t.Fatal("a clone does not share its parent's page")
	}
	child.Writable(1, Copy[[4]int])[1] = 5
	if p := child.Writable(1, Copy[[4]int]); p == shared || *p != [4]int{1, 5} {
		t.Fatalf("child page %v, shared %v: the write did not copy once", *p, *shared)
	}
	parent.Writable(7, Copy[[4]int])[2] = 9
	if got := *child.At(7); got != [4]int{7} {
		t.Fatalf("the parent's write after the clone reached the child: %v", got)
	}
	if *shared != [4]int{1} || parent.At(1) != shared {
		t.Fatalf("the child's write reached the parent: %v", *shared)
	}
	child.Delete(7)
	if parent.At(7) == nil || child.At(7) != nil || len(child.Blocks()) != 2 {
		t.Fatal("Delete on the child did not drop exactly its own page")
	}
	if got := parent.Blocks(); !slices.Equal(got, []uint32{1, 7, 1 << 31}) {
		t.Fatalf("Blocks = %v, not ascending", got)
	}
}

// TestConcurrentClones: clones of one parent taken concurrently, with
// readers on the parent, each write only their own copies (run with -race).
func TestConcurrentClones(t *testing.T) {
	parent := New[[4]int]()
	for n := range uint32(8) {
		parent.Writable(n, Copy[[4]int])[0] = 1
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(2)
		go func() {
			defer wg.Done()
			c := parent.Clone()
			for n := range uint32(8) {
				c.Writable(n, Copy[[4]int])[0] = g + 2
			}
		}()
		go func() {
			defer wg.Done()
			for n := range uint32(8) {
				if v := parent.At(n)[0]; v != 1 {
					t.Errorf("parent page %d reads %d", n, v)
				}
			}
		}()
	}
	wg.Wait()
}
