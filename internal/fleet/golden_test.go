package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"txsampler/internal/profile"
)

// TestFoldGolden pins the fold's bytes on real shards: eight databases
// (stamp/vacation, synchro/linkedlist, parsec/dedup and app/leveldb at
// 4 threads, seeds 1 and 2) go to two windows, one seed each. Each
// window's /profile response and profile.MergeAll of all eight must
// equal the files in testdata/fold byte for byte. Those bytes are what
// every fleet aggregate and merged txdiff side is made of, so rewrite
// them only with a deliberate change to the fold or the format.
func TestFoldGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fold", "shards", "*.json"))
	if err != nil || len(paths) != 8 {
		t.Fatalf("shards %q: %v", paths, err)
	}
	golden := func(name string, got []byte) {
		t.Helper()
		want, err := os.ReadFile(filepath.Join("testdata", "fold", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: %d bytes differ from the %d pinned", name, len(got), len(want))
		}
	}

	srv, ts := openTestServer(t, Config{})
	var dbs []*profile.Database
	for i, p := range paths {
		payload, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if resp, body := ingest(t, ts.URL, payload, filepath.Base(p), i%2); resp.StatusCode != 200 {
			t.Fatalf("ingest %s: status %d: %s", p, resp.StatusCode, body)
		}
		db, err := profile.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, db)
	}
	waitLagZero(t, srv)
	for w := 0; w < 2; w++ {
		_, body := get(t, fmt.Sprintf("%s/profile?window=%d", ts.URL, w))
		golden(fmt.Sprintf("window-%d.json", w), body)
	}
	var buf bytes.Buffer
	if err := profile.MergeAll(dbs).Write(&buf); err != nil {
		t.Fatal(err)
	}
	golden("mergeall.json", buf.Bytes())
}
