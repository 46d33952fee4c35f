package store

// The artifact wire format, versioned and checksummed:
//
//	magic   8 bytes  "CSPSTORE"
//	version uint32   little-endian (currently 4)
//	payload uvarint-framed sections (see encodePayload)
//	crc64   8 bytes  little-endian ECMA checksum of magic+version+payload
//
// Decode verifies the checksum over the whole prefix before looking at any
// payload byte, then bounds-checks every count, index, and length against
// the bytes actually present. The trie graph travels as one embedded
// frozen arena image, validated structurally by frozen.Open and referenced
// as a zero-copy subslice of the input — when the input is an mmap'd file,
// the decoded artifact's trie data *is* the mapping. Only a fully
// validated Artifact reaches the caller, so a truncated or bit-flipped
// file can never intern partial symbols or tries: decoding is pure, and
// interning happens later, lazily, on data that already passed validation.
//
// Integers are unsigned varints (zigzag for signed), strings and blobs are
// length-prefixed. Counts are additionally sanity-bounded by the number of
// remaining input bytes, so a corrupted count fails fast instead of
// attempting a multi-gigabyte allocation.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"

	"cspsat/internal/closure/frozen"
)

const (
	magic = "CSPSTORE"
	// Version is the current wire format version. Bump on any layout
	// change; old files then read as ErrVersionSkew and are recomputed.
	// History: 1 = initial layout; 2 = appended the Refinements section
	// (model-tagged refinement verdict blocks); 3 = the Events and Nodes
	// sections were replaced by an embedded frozen arena image (flat
	// offset-addressed trie graph, mmap-traversable without rebuilding);
	// 4 = the TraceRoots, Checks, Proves and Refinements sections were
	// replaced by one Results section, each record the facade's key, an
	// arena root and a verdict blob.
	Version uint32 = 4
)

var (
	// ErrCorrupt reports a file that is not a well-formed artifact:
	// bad magic, failed checksum, truncation, or out-of-bounds structure.
	ErrCorrupt = errors.New("store: corrupt artifact")
	// ErrVersionSkew reports a well-formed file written by a different
	// codec version. Callers treat it as stale: recompute and overwrite.
	ErrVersionSkew = errors.New("store: artifact version skew")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Encode serializes an artifact into the versioned, checksummed wire form.
// The artifact must carry an arena (Builder.Artifact always does).
func Encode(a *Artifact) []byte {
	var w writer
	w.buf = append(w.buf, magic...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, Version)
	w.encodePayload(a)
	sum := crc64.Checksum(w.buf, crcTable)
	w.buf = binary.LittleEndian.AppendUint64(w.buf, sum)
	return w.buf
}

type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) str(s string)     { w.uvarint(uint64(len(s))); w.buf = append(w.buf, s...) }
func (w *writer) bytes(b []byte)   { w.uvarint(uint64(len(b))); w.buf = append(w.buf, b...) }

func (w *writer) encodePayload(a *Artifact) {
	w.str(a.Key)
	w.str(a.Source)
	w.varint(int64(a.NatWidth))
	w.varint(a.CreatedUnix)

	if a.Arena == nil {
		panic("store: Encode on an artifact without an arena")
	}
	w.bytes(a.Arena.Bytes())

	w.uvarint(uint64(len(a.Results)))
	for _, r := range a.Results {
		w.uvarint(uint64(r.Kind))
		w.uvarint(uint64(r.Model))
		w.varint(int64(r.Bound))
		w.str(r.P)
		w.str(r.Q)
		w.uvarint(uint64(r.Root))
		w.uvarint(uint64(r.Iterations))
		w.bytes(r.Blob)
	}
}

// Decode parses and fully validates an artifact. It returns ErrCorrupt
// (possibly wrapped, with detail) for malformed input and ErrVersionSkew
// for a well-formed file from another codec version. Decode never touches
// intern tables or any other global state.
//
// The returned artifact's arena aliases data (the image subslice is taken
// zero-copy), so data must stay valid — and unmodified — for the
// artifact's lifetime. Store.Get relies on exactly this to serve
// tries straight from the page cache; callers that cannot guarantee the
// backing bytes outlive the artifact should copy data first.
func Decode(data []byte) (*Artifact, error) {
	// Frame: magic + version + payload + crc64 trailer.
	if len(data) < len(magic)+4+8 {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the minimal frame", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	body, trailer := data[:len(data)-8], data[len(data)-8:]
	want := binary.LittleEndian.Uint64(trailer)
	if got := crc64.Checksum(body, crcTable); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch (got %016x want %016x)", ErrCorrupt, got, want)
	}
	ver := binary.LittleEndian.Uint32(data[len(magic):])
	if ver != Version {
		return nil, fmt.Errorf("%w: file version %d, codec version %d", ErrVersionSkew, ver, Version)
	}

	r := &reader{buf: body[len(magic)+4:]}
	a, err := r.decodePayload()
	if err != nil {
		return nil, err
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(r.buf))
	}
	return a, nil
}

type reader struct {
	buf []byte
}

func (r *reader) corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

func (r *reader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, r.corrupt("truncated uvarint (%s)", what)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *reader) varint(what string) (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, r.corrupt("truncated varint (%s)", what)
	}
	r.buf = r.buf[n:]
	return v, nil
}

// count reads a collection length and rejects values that could not
// possibly fit in the remaining bytes (each element costs ≥1 byte).
func (r *reader) count(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)) {
		return 0, r.corrupt("%s count %d exceeds %d remaining bytes", what, v, len(r.buf))
	}
	return int(v), nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.count(what)
	if err != nil {
		return "", err
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

func (r *reader) blob(what string) ([]byte, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	var b []byte
	if n > 0 {
		b = make([]byte, n)
		copy(b, r.buf[:n])
	}
	r.buf = r.buf[n:]
	return b, nil
}

// view is blob without the copy: a capped subslice of the input, for the
// arena image whose whole point is to be traversed where it lies.
func (r *reader) view(what string) ([]byte, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	b := r.buf[:n:n]
	r.buf = r.buf[n:]
	return b, nil
}

func (r *reader) decodePayload() (*Artifact, error) {
	a := &Artifact{}
	var err error
	if a.Key, err = r.str("key"); err != nil {
		return nil, err
	}
	if a.Source, err = r.str("source"); err != nil {
		return nil, err
	}
	nw, err := r.varint("nat width")
	if err != nil {
		return nil, err
	}
	a.NatWidth = int(nw)
	if a.CreatedUnix, err = r.varint("created"); err != nil {
		return nil, err
	}

	img, err := r.view("arena image")
	if err != nil {
		return nil, err
	}
	if a.Arena, err = frozen.Open(img); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}

	n, err := r.count("results")
	if err != nil {
		return nil, err
	}
	if n > 0 {
		a.Results = make([]Result, n)
	}
	for i := range a.Results {
		res := &a.Results[i]
		kind, err := r.uvarint("result kind")
		if err != nil {
			return nil, err
		}
		model, err := r.uvarint("result model")
		if err != nil {
			return nil, err
		}
		bound, err := r.varint("result bound")
		if err != nil {
			return nil, err
		}
		res.Kind, res.Model, res.Bound = uint32(kind), uint32(model), int(bound)
		if res.P, err = r.str("result p"); err != nil {
			return nil, err
		}
		if res.Q, err = r.str("result q"); err != nil {
			return nil, err
		}
		root, err := r.uvarint("result root")
		if err != nil {
			return nil, err
		}
		if root >= uint64(a.Arena.NumNodes()) {
			return nil, r.corrupt("result %d: node index %d out of %d", i, root, a.Arena.NumNodes())
		}
		iters, err := r.uvarint("result iterations")
		if err != nil {
			return nil, err
		}
		res.Root, res.Iterations = uint32(root), uint32(iters)
		if res.Blob, err = r.blob("result blob"); err != nil {
			return nil, err
		}
	}
	return a, nil
}
