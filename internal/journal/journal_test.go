package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func testMeta() Meta {
	return Meta{WireSchema: 1, StoreCodec: 3, Go: "go-test", Start: 42}
}

func writeTestJournal(t testing.TB, records int) (path string, recs []Record) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "j.cspj")
	w, err := Create(path, testMeta())
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i := 0; i < records; i++ {
		rec := Record{
			Time:       int64(1000 + i),
			Method:     "POST",
			Path:       "/v1/check",
			Status:     200,
			Request:    []byte(`{"source":"p = a!1 -> p\n","depth":` + string(rune('4'+i)) + `}`),
			RespDigest: Digest([]byte(`{"ok":true,"n":` + string(rune('0'+i)) + `}`)),
			RespBytes:  20 + i,
		}
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		rec.Seq = i + 1
		recs = append(recs, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return path, recs
}

func TestRoundTrip(t *testing.T) {
	path, want := writeTestJournal(t, 5)
	res, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if res.Torn {
		t.Fatalf("clean journal read as torn: %v", res.TornErr)
	}
	if res.Meta.Schema != Schema || res.Meta.WireSchema != 1 || res.Meta.StoreCodec != 3 || res.Meta.Go != "go-test" {
		t.Fatalf("meta mangled: %+v", res.Meta)
	}
	if len(res.Records) != len(want) {
		t.Fatalf("got %d records, want %d", len(res.Records), len(want))
	}
	for i, rec := range res.Records {
		w := want[i]
		if rec.Seq != w.Seq || rec.Method != w.Method || rec.Path != w.Path ||
			rec.Status != w.Status || !bytes.Equal(rec.Request, w.Request) ||
			rec.RespDigest != w.RespDigest || rec.RespBytes != w.RespBytes {
			t.Errorf("record %d mangled:\ngot  %+v\nwant %+v", i, rec, w)
		}
	}
}

func TestCreateRefusesExisting(t *testing.T) {
	path, _ := writeTestJournal(t, 1)
	if _, err := Create(path, testMeta()); err == nil {
		t.Fatal("Create over an existing journal succeeded; journals are immutable history")
	}
}

// TestTornFinalRecord is the crash-tolerance contract: truncating the file
// at every byte position inside the final frame must read back the full
// valid prefix with Torn set — never an error, never a short prefix, and
// never the damaged record.
func TestTornFinalRecord(t *testing.T) {
	path, want := writeTestJournal(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Read(data)
	if err != nil || len(full.Records) != 3 {
		t.Fatalf("baseline read: %v (%d records)", err, len(full.Records))
	}

	// The header's extent: an empty journal is exactly magic + meta frame.
	emptyPath := filepath.Join(t.TempDir(), "empty.cspj")
	we, err := Create(emptyPath, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	we.Close()
	empty, err := os.ReadFile(emptyPath)
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := len(empty)

	// Try every truncation point: cuts inside the header must fail as
	// corrupt, cuts anywhere in record territory must yield the intact
	// prefix plus Torn.
	for cut := len(data) - 1; cut > 0; cut-- {
		res, err := Read(data[:cut])
		if err != nil {
			if cut < headerEnd && errors.Is(err, ErrCorrupt) {
				continue
			}
			t.Fatalf("cut %d: %v", cut, err)
		}
		if cut < headerEnd {
			t.Fatalf("cut %d inside the header read back clean", cut)
		}
		if len(res.Records) == 3 && !res.Torn {
			t.Fatalf("cut %d: truncated journal read back complete", cut)
		}
		if len(res.Records) > 3 {
			t.Fatalf("cut %d: invented records", cut)
		}
		if res.Torn && res.TornErr == nil {
			t.Fatalf("cut %d: torn without a cause", cut)
		}
		if res.Torn && !errors.Is(res.TornErr, ErrTorn) {
			t.Fatalf("cut %d: torn cause %v does not wrap ErrTorn", cut, res.TornErr)
		}
		for i, rec := range res.Records {
			if rec.RespDigest != want[i].RespDigest {
				t.Fatalf("cut %d: surviving record %d mangled", cut, i)
			}
		}
	}
}

// TestMidFileCorruption: flipping a byte in a non-final record is not
// tearing — the read must fail loudly rather than silently dropping the
// records behind the damage.
func TestMidFileCorruption(t *testing.T) {
	path, _ := writeTestJournal(t, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte early in the first record's payload (past magic + header
	// frame; the records carry distinctive JSON, so offset len(data)/3 is
	// safely inside record territory but before the final frame).
	mut := append([]byte(nil), data...)
	mut[len(mut)/3] ^= 0x40
	res, err := Read(mut)
	if err == nil {
		// The flip may have landed in the final record after all; then it
		// must at least be reported torn.
		if !res.Torn {
			t.Fatal("corrupt journal read back clean")
		}
		return
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestBadMagic(t *testing.T) {
	for _, data := range [][]byte{nil, []byte("x"), []byte("CSPJRNL9morebytes")} {
		if _, err := Read(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("Read(%q) = %v, want ErrCorrupt", data, err)
		}
	}
}

func TestNormalizeStripsVolatileKeys(t *testing.T) {
	a := []byte(`{"ok":true,"elapsed_ms":12,"cache_hit":false,"results":[{"ok":true,"elapsed_ms":7,"progress":[{"stage":"x"}]}]}`)
	b := []byte(`{"results":[{"progress":[],"elapsed_ms":99,"ok":true}],"cache_hit":true,"ok":true,"elapsed_ms":1}`)
	if Digest(a) != Digest(b) {
		t.Fatalf("normalization is not timing-blind:\n%s\n%s", Normalize(a), Normalize(b))
	}
	c := []byte(`{"ok":false,"elapsed_ms":12}`)
	if Digest(a) == Digest(c) {
		t.Fatal("normalization erased a verdict difference")
	}
}

func TestNormalizeKeyOrderAndNumbers(t *testing.T) {
	a := []byte(`{"b":2,"a":1.50,"c":[1,2,3]}`)
	b := []byte(`{"a":1.50,"c":[1,2,3],"b":2}`)
	if !bytes.Equal(Normalize(a), Normalize(b)) {
		t.Fatalf("key order leaked into normal form: %s vs %s", Normalize(a), Normalize(b))
	}
	// json.Number must preserve the literal (1.50 stays 1.50, not 1.5).
	if !bytes.Contains(Normalize(a), []byte("1.50")) {
		t.Fatalf("number literal rewritten: %s", Normalize(a))
	}
}

func TestNormalizeNonJSON(t *testing.T) {
	raw := []byte("not json at all")
	if !bytes.Equal(Normalize(raw), raw) {
		t.Fatal("non-JSON body rewritten")
	}
	trailing := []byte(`{"ok":true} extra`)
	if !bytes.Equal(Normalize(trailing), trailing) {
		t.Fatal("trailing-garbage body rewritten")
	}
}

func TestWriterStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.cspj")
	w, err := Create(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if n, b := w.Stats(); n != 0 || b <= int64(len(Magic)) {
		t.Fatalf("fresh stats (%d, %d)", n, b)
	}
	if err := w.Append(Record{Method: "POST", Path: "/v1/check"}); err != nil {
		t.Fatal(err)
	}
	n, b := w.Stats()
	if n != 1 {
		t.Fatalf("records = %d, want 1", n)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != b {
		t.Fatalf("stats bytes %d, file %v %v", b, fi.Size(), err)
	}
}
