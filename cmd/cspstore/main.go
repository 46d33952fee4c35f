// Command cspstore operates an on-disk artifact store — the directory
// cspserved's -store flag (and the CLI tools') persists compiled modules
// into. It never runs an engine; it reads, validates, and deletes the
// content-addressed .cspa files directly.
//
//	cspstore -store DIR ls                 list artifacts with arena sizes and result counts
//	cspstore -store DIR verify [key...]    decode + validate each artifact, report corruption
//	cspstore -store DIR gc                 remove quarantined files and temp droppings
//	cspstore -store DIR rm key...          delete artifacts by key
//
// verify decodes every byte of each artifact — checksum, version, and the
// frozen arena's structural validation (offsets, bounds, edge order, size
// consistency) — exactly the validation a cspserved warm boot performs,
// without interning a single symbol or trie node; with -thaw it
// additionally rebuilds the trie graph through the interner, proving the
// arena thaws cleanly. With -quarantine, bad artifacts are renamed to
// <key>.cspa.corrupt so the next warm boot skips them without re-reading.
//
// Exit status 1 when verify finds a bad artifact, 2 on usage errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"cspsat/internal/store"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cspstore -store DIR [-quarantine] <ls|verify|gc|rm> [key...]")
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cspstore:", err)
	os.Exit(2)
}

func main() {
	dir := flag.String("store", "", "artifact store directory (required)")
	quarantine := flag.Bool("quarantine", false, "verify: rename bad artifacts to <key>.cspa.corrupt")
	thaw := flag.Bool("thaw", false, "verify: additionally rebuild each trie graph through the interner")
	flag.Usage = usage
	flag.Parse()
	if *dir == "" || flag.NArg() == 0 {
		usage()
	}
	st, err := store.Open(*dir)
	if err != nil {
		fatal(err)
	}

	cmd, keys := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "ls":
		if len(keys) != 0 {
			usage()
		}
		ls(st)
	case "verify":
		if !verify(st, keys, *quarantine, *thaw) {
			os.Exit(1)
		}
	case "gc":
		if len(keys) != 0 {
			usage()
		}
		removed, bytes, err := st.GC()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("gc: removed %d files, reclaimed %d bytes\n", removed, bytes)
	case "rm":
		if len(keys) == 0 {
			usage()
		}
		for _, key := range keys {
			if err := st.Delete(key); err != nil {
				fatal(err)
			}
		}
	default:
		usage()
	}
}

// allKeys resolves an explicit key list, defaulting to every artifact in
// the store.
func allKeys(st *store.Store, keys []string) []string {
	if len(keys) != 0 {
		return keys
	}
	all, err := st.Keys()
	if err != nil {
		fatal(err)
	}
	return all
}

func ls(st *store.Store) {
	for _, key := range allKeys(st, nil) {
		size, err := st.Size(key)
		if err != nil {
			fmt.Printf("%s  (stat: %v)\n", key, err)
			continue
		}
		a, _, err := st.Get(key)
		if err != nil {
			fmt.Printf("%s  %8d bytes  UNREADABLE: %v\n", key, size, err)
			continue
		}
		fmt.Printf("%s  %8d bytes  %s  nat=%d  arena %d B (%d nodes, %d edges)  %d results\n",
			key, size, time.Unix(a.CreatedUnix, 0).UTC().Format("2006-01-02 15:04"),
			a.NatWidth, len(a.Arena.Bytes()), a.Arena.NumNodes(), a.Arena.NumEdges(),
			len(a.Results))
	}
}

// verify fully validates each artifact — decode covers the checksum, the
// version word, and the arena's structural checks, all without interning —
// and reports per key. With thaw it also rebuilds the trie graph through
// the interner. It returns false when any artifact is bad.
func verify(st *store.Store, keys []string, quarantine, thaw bool) bool {
	ok := true
	for _, key := range allKeys(st, keys) {
		a, n, err := st.Get(key)
		if err == nil && thaw {
			a.Arena.Thaw()
		}
		switch {
		case err == nil:
			fmt.Printf("ok       %s  (%d bytes)\n", key, n)
		case errors.Is(err, store.ErrNotFound):
			ok = false
			fmt.Printf("missing  %s\n", key)
		default:
			ok = false
			kind := "corrupt"
			if errors.Is(err, store.ErrVersionSkew) {
				kind = "version"
			}
			fmt.Printf("%-8s %s  %v\n", kind, key, err)
			if quarantine {
				if qerr := st.Quarantine(key); qerr != nil {
					fmt.Fprintln(os.Stderr, "cspstore:", qerr)
				} else {
					fmt.Printf("         %s quarantined\n", key)
				}
			}
		}
	}
	return ok
}
