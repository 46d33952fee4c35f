package journal

import (
	"errors"
	"os"
	"testing"
)

// FuzzRead fuzzes the meta and first record payloads inside valid frames,
// so a mutation reaches payload parsing instead of failing a checksum, and
// the raw bytes after them, which may tear or corrupt later frames. Read
// must not panic, must fail only with ErrCorrupt, and must report a torn
// tail with a cause wrapping ErrTorn.
func FuzzRead(f *testing.F) {
	path, _ := writeTestJournal(f, 3)
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	meta, rest, err := readFrame(data[len(Magic):])
	if err != nil {
		f.Fatal(err)
	}
	rec, tail, err := readFrame(rest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(meta, rec, tail)
	f.Add(meta, rec, tail[:len(tail)/2])
	f.Add(meta, []byte("{}"), []byte{})

	f.Fuzz(func(t *testing.T, meta, rec, tail []byte) {
		data := append([]byte(Magic), frame(meta)...)
		data = append(data, frame(rec)...)
		res, err := Read(append(data, tail...))
		if err != nil {
			if res != nil || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Read failed with result %v and error %v", res, err)
			}
			return
		}
		if res.Torn != (res.TornErr != nil) || (res.Torn && !errors.Is(res.TornErr, ErrTorn)) {
			t.Fatalf("torn %v with cause %v", res.Torn, res.TornErr)
		}
	})
}
