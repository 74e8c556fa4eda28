package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/reproductions/cppe/internal/serve/fsfault"
)

func TestStoreJournalRoundTrip(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{ID: "bbb", Request: Request{Benchmark: "SRD", Setup: "cppe", Oversubscription: 50}, State: StateQueued, Attempts: 1},
		{ID: "aaa", Request: Request{Benchmark: "NW", Setup: "baseline", Oversubscription: 75}, State: StateFailed, Error: "boom"},
	}
	for _, rec := range recs {
		if err := st.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	// Replay order is sorted by ID, independent of write order.
	want := []Record{recs[1], recs[0]}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Jobs() = %+v, want %+v", got, want)
	}

	// Overwrite is last-state-wins.
	recs[0].State = StateCached
	if err := st.PutJob(recs[0]); err != nil {
		t.Fatal(err)
	}
	got, _ = st.Jobs()
	if len(got) != 2 || got[1].State != StateCached {
		t.Errorf("after overwrite: %+v", got)
	}

	st.DeleteJob("bbb")
	if got, _ = st.Jobs(); len(got) != 1 || got[0].ID != "aaa" {
		t.Errorf("after delete: %+v", got)
	}
}

func TestStoreResults(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st.HasResult("x") {
		t.Fatal("HasResult true before Put")
	}
	data := []byte("{\n  \"Cycles\": 1\n}\n")
	if err := st.PutResult("x", data); err != nil {
		t.Fatal(err)
	}
	got, err := st.Result("x")
	if err != nil || string(got) != string(data) {
		t.Fatalf("Result = %q, %v; want stored bytes back", got, err)
	}
	if !st.HasResult("x") {
		t.Error("HasResult false after Put")
	}
}

// TestStoreCrashHygiene pins the crash-recovery contract of the store: torn
// .tmp files are swept on open, and unparsable journal records are removed
// (not just skipped) so a bad record cannot wedge replay forever.
func TestStoreCrashHygiene(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutJob(Record{ID: "good", State: StateQueued}); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "journal", "torn.json.tmp")
	corrupt := filepath.Join(dir, "journal", "corrupt.json")
	os.WriteFile(torn, []byte("{\"id\":\"to"), 0o644)
	os.WriteFile(corrupt, []byte("not json"), 0o644)

	// Reopen simulates a restart after the crash that left those files.
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("reopen did not sweep the torn .tmp file")
	}
	recs, err := st2.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "good" {
		t.Errorf("Jobs() = %+v, want just the good record", recs)
	}
	if _, err := os.Stat(corrupt); !os.IsNotExist(err) {
		t.Error("replay did not remove the corrupt record")
	}
}

// TestResultIndexCoherence steps the store through every way a result file
// comes and goes, and after each step requires HasResult to agree with a
// Glob of results/ for every ID involved.
func TestResultIndexCoherence(t *testing.T) {
	dir := t.TempDir()
	res := filepath.Join(dir, "results")
	if err := os.MkdirAll(res, 0o755); err != nil {
		t.Fatal(err)
	}
	// Results of an earlier life, and a torn write it left behind.
	for _, name := range []string{"a.json", "b.json", "c.json", "d.json.7.tmp"} {
		if err := os.WriteFile(filepath.Join(res, name), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	inj := fsfault.NewInjector(fsfault.OS, 1)
	st, err := OpenStoreFS(dir, inj)
	if err != nil {
		t.Fatal(err)
	}
	coherent := func(step string) {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(res, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		onDisk := make(map[string]bool)
		for _, p := range paths {
			onDisk[resultIDFromPath(p)] = true
		}
		for _, id := range []string{"a", "b", "c", "d", "e"} {
			if got := st.HasResult(id); got != onDisk[id] {
				t.Errorf("after %s: HasResult(%q) = %v, file on disk = %v", step, id, got, onDisk[id])
			}
		}
	}
	coherent("open")

	inj.FailRenames(1)
	inj.Arm()
	if err := st.PutResult("e", []byte("{}\n")); err == nil {
		t.Fatal("PutResult succeeded through a failing rename")
	}
	inj.Disarm()
	coherent("a put whose rename failed")
	if err := st.PutResult("e", []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	coherent("a put")

	inj.FailRenames(0)
	inj.FailRemoves(1)
	inj.Arm()
	if err := st.DeleteResult("a"); err == nil {
		t.Fatal("DeleteResult succeeded through a failing remove")
	}
	inj.Disarm()
	coherent("a delete whose remove failed")
	if err := st.DeleteResult("a"); err != nil {
		t.Fatal(err)
	}
	coherent("a delete")

	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(st.resultPath("b"), old, old); err != nil {
		t.Fatal(err)
	}
	if got := st.GC(GCConfig{MaxAge: time.Hour}, time.Now(), nil); got.EvictedResults != 1 {
		t.Fatalf("GC evicted %d results, want the aged one", got.EvictedResults)
	}
	coherent("a GC eviction")

	// A file removed behind the store's back stays indexed until a read
	// finds it gone.
	if err := os.Remove(st.resultPath("c")); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Result("c"); err == nil {
		t.Fatal("Result read a removed file")
	}
	coherent("a read of a file removed out of band")
}

func TestSafeName(t *testing.T) {
	if got := safeName("../../etc/passwd"); got != "______etc_passwd" {
		t.Errorf("safeName traversal: %q", got)
	}
	if got := safeName("00e1f2a3b4c5d6e7"); got != "00e1f2a3b4c5d6e7" {
		t.Errorf("safeName mangled a clean ID: %q", got)
	}
}
