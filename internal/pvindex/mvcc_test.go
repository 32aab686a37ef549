package pvindex

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"pvoronoi/internal/bruteforce"
	"pvoronoi/internal/geom"
	"pvoronoi/internal/uncertain"
)

// TestPinnedSnapshotIsolation is the MVCC semantic core: a reader that pins
// a version keeps observing exactly that version — candidate sets, UBRs and
// pdf instances — across however many writes commit after the pin,
// including a rewrite of the same object ID with a different pdf.
func TestPinnedSnapshotIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	db := randomDB(rng, 80, 2, 700, 30, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	churnID := uncertain.ID(9000)
	region := geom.NewRect(geom.Point{340, 340}, geom.Point{360, 360})
	objA := &uncertain.Object{ID: churnID, Region: region, Instances: []uncertain.Instance{
		{Pos: geom.Point{350, 350}, Prob: 1},
	}}
	if _, err := ix.Insert(objA); err != nil {
		t.Fatal(err)
	}

	pin := ix.Pin()
	defer pin.Release()
	pinEpoch := pin.Epoch()
	pinDB := pin.DB().Clone() // oracle for the pinned version
	probes := make([]geom.Point, 50)
	wantNN := make([][]uncertain.ID, len(probes))
	for i := range probes {
		probes[i] = geom.Point{rng.Float64() * 700, rng.Float64() * 700}
		wantNN[i] = bruteforce.PossibleNN(pinDB, probes[i])
	}
	ubrA, ok := pin.UBR(churnID)
	if !ok {
		t.Fatal("pinned version lost the churn object")
	}

	// Write past the pin: delete the churn object, re-insert the same ID
	// with a different pdf, and churn unrelated objects.
	if _, err := ix.Delete(churnID); err != nil {
		t.Fatal(err)
	}
	objB := &uncertain.Object{ID: churnID, Region: region, Instances: []uncertain.Instance{
		{Pos: geom.Point{341, 341}, Prob: 0.5},
		{Pos: geom.Point{359, 359}, Prob: 0.5},
	}}
	if _, err := ix.Insert(objB); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		o := newObj(rng, uncertain.ID(9100+i), 2, 650, 25)
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}

	if ix.Epoch() <= pinEpoch {
		t.Fatalf("epoch did not advance past the pin: %d <= %d", ix.Epoch(), pinEpoch)
	}
	if pin.Epoch() != pinEpoch {
		t.Fatal("pinned epoch drifted")
	}

	// Every pinned read is version-consistent with the pinned oracle.
	for i, q := range probes {
		got, err := pin.PossibleNN(q)
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(idsOf(got), wantNN[i]) {
			t.Fatalf("probe %v: pinned answer diverged from pinned oracle", q)
		}
	}
	if ubrNow, ok := pin.UBR(churnID); !ok || !ubrNow.Equal(ubrA) {
		t.Fatal("pinned UBR changed under concurrent writes")
	}
	ins, err := pin.Instances(churnID)
	if err != nil {
		t.Fatal(err)
	}
	if len(ins) != 1 || !ins[0].Pos.Equal(geom.Point{350, 350}) {
		t.Fatalf("pinned reader served the rewritten pdf: %+v", ins)
	}

	// The live index serves the new pdf.
	liveIns, err := ix.Instances(churnID)
	if err != nil {
		t.Fatal(err)
	}
	if len(liveIns) != 2 {
		t.Fatalf("live reader did not see the rewrite: %+v", liveIns)
	}
}

// TestPinnedSnapshotsUnderChurnStorm pins snapshots from reader goroutines
// while writers storm ApplyBatch, asserting each pinned snapshot is
// internally consistent: its octree answers (tree), its database (primary
// map) and its stored UBR/pdf records agree with a brute-force oracle built
// from that version's own database — i.e. from the op prefix the version
// represents. Run with -race.
func TestPinnedSnapshotsUnderChurnStorm(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	db := randomDB(rng, 100, 2, 800, 30, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	fail := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	// Writer storm: rounds of mixed batches (the single writer thread
	// serializes as ApplyBatch would anyway; each round publishes).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		wrng := rand.New(rand.NewSource(73))
		for round := 0; round < 30; round++ {
			cur := ix.DB()
			var ups []Update
			for i := 0; i < 5; i++ {
				ups = append(ups, Update{Op: OpInsert, Object: newObj(wrng, uncertain.ID(20_000+round*5+i), 2, 750, 25)})
			}
			seen := map[uncertain.ID]bool{}
			for i := 0; i < 3; i++ {
				victim := cur.Objects()[wrng.Intn(cur.Len())].ID
				if seen[victim] {
					continue
				}
				seen[victim] = true
				ups = append(ups, Update{Op: OpDelete, ID: victim})
			}
			if _, err := ix.ApplyBatch(ups); err != nil {
				fail(err)
				return
			}
		}
	}()

	// Readers: pin, verify tree vs primary map vs records via the oracle,
	// release, repeat.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := ix.Pin()
				pdb := pin.DB()
				// Tree vs database: Step-1 answers match the oracle over
				// the pinned database at random points.
				for i := 0; i < 5; i++ {
					q := geom.Point{qrng.Float64() * 800, qrng.Float64() * 800}
					got, err := pin.PossibleNN(q)
					if err != nil {
						fail(err)
						pin.Release()
						return
					}
					if !sameIDs(idsOf(got), bruteforce.PossibleNN(pdb, q)) {
						fail(errInconsistent(pin.Epoch(), q))
						pin.Release()
						return
					}
				}
				// Records vs database: sampled objects have a stored UBR
				// containing their region and their exact pdf.
				for i := 0; i < 5; i++ {
					o := pdb.Objects()[qrng.Intn(pdb.Len())]
					ubr, ok := pin.UBR(o.ID)
					if !ok || !ubr.ContainsRect(o.Region) {
						fail(errInconsistent(pin.Epoch(), geom.Point{-1}))
						pin.Release()
						return
					}
					ins, err := pin.Instances(o.ID)
					if err != nil || len(ins) != len(o.Instances) {
						fail(errInconsistent(pin.Epoch(), geom.Point{-2}))
						pin.Release()
						return
					}
				}
				pin.Release()
			}
		}(int64(100 + r))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("churn storm: %v", err)
	default:
	}

	// Post-storm: the final version agrees with its oracle, and all retired
	// versions have drained and reclaimed (drain-triggered sweeps run on a
	// goroutine, so poll briefly).
	assertMatchesBruteforce(t, ix, rng, 800, 2, 60)
	waitLiveVersions(t, ix, 1)
	if st := ix.MVCC(); st.InFlightReaders != 0 {
		t.Fatalf("storm left %d in-flight readers", st.InFlightReaders)
	}
}

// waitLiveVersions polls until the version queue drains to want (reader-
// driven reclamation is asynchronous) or fails after a deadline.
func waitLiveVersions(t *testing.T, ix *Index, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := ix.MVCC(); st.LiveVersions == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("version queue stuck at %d live versions, want %d", ix.MVCC().LiveVersions, want)
		}
		time.Sleep(time.Millisecond)
	}
}

type errInconsistentT struct {
	epoch uint64
	q     geom.Point
}

func (e errInconsistentT) Error() string {
	return "pinned snapshot internally inconsistent"
}

func errInconsistent(epoch uint64, q geom.Point) error {
	return errInconsistentT{epoch: epoch, q: q}
}

// TestVersionReclamation churns 1000 single-op epochs and asserts retired
// versions are reclaimed: the version queue stays at 1, every published
// predecessor was collected, and the page store's live set does not grow
// monotonically.
func TestVersionReclamation(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	db := randomDB(rng, 60, 2, 600, 25, true)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	liveStart := ix.Store().Live()
	epochStart := ix.Epoch()

	const epochs = 1000
	for i := 0; i < epochs/2; i++ {
		o := newObj(rng, uncertain.ID(30_000+i), 2, 550, 20)
		o.Instances = uncertain.SampleInstances(o.Region, uncertain.PDFUniform, 5, rng)
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
		if _, err := ix.Delete(o.ID); err != nil {
			t.Fatal(err)
		}
	}

	st := ix.MVCC()
	if got := st.Epoch - epochStart; got != epochs {
		t.Fatalf("published %d epochs, want %d", got, epochs)
	}
	if st.LiveVersions != 1 {
		t.Fatalf("%d live versions after churn, want 1 (retired versions not reclaimed)", st.LiveVersions)
	}
	if st.Reclaimed != epochs {
		t.Fatalf("reclaimed %d versions, want %d", st.Reclaimed, epochs)
	}
	// Pages: every object inserted was deleted again, so the live set must
	// come back to (near) the starting footprint — shadow copies and
	// version garbage were all returned to the store. Octree splits are
	// permanent structure, so allow modest growth, not 1000 epochs' worth.
	liveEnd := ix.Store().Live()
	if liveEnd > liveStart+liveStart/2+64 {
		t.Fatalf("page store grew monotonically over %d epochs: %d -> %d live pages",
			epochs, liveStart, liveEnd)
	}
	assertMatchesBruteforce(t, ix, rng, 600, 2, 60)
}

// TestPinBlocksReclamation verifies the refcount half of the reclaimer: a
// held pin keeps its version (and the page frees attached to it) alive
// while later versions stack up retired; releasing the pin drains them all.
func TestPinBlocksReclamation(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	db := randomDB(rng, 50, 2, 500, 25, false)
	ix, err := Build(db, testConfig())
	if err != nil {
		t.Fatal(err)
	}

	pin := ix.Pin()
	for i := 0; i < 20; i++ {
		o := newObj(rng, uncertain.ID(40_000+i), 2, 450, 20)
		if _, err := ix.Insert(o); err != nil {
			t.Fatal(err)
		}
	}
	st := ix.MVCC()
	if st.LiveVersions < 2 {
		t.Fatalf("pinned version was collected: %d live versions", st.LiveVersions)
	}
	if st.InFlightReaders != 1 {
		t.Fatalf("in-flight readers = %d, want 1", st.InFlightReaders)
	}
	// The pinned version still answers from its own state.
	if _, err := pin.PossibleNN(geom.Point{250, 250}); err != nil {
		t.Fatal(err)
	}

	pin.Release()
	waitLiveVersions(t, ix, 1)
	if st := ix.MVCC(); st.InFlightReaders != 0 {
		t.Fatalf("release left %d in-flight readers", st.InFlightReaders)
	}
}
