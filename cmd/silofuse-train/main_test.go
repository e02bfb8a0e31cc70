package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// failAfter passes n bytes through to w and then fails, a disk that fills
// mid-write.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n -= n
		return n, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

// TestWriteFileAtomic: a save that fails part-way leaves the file a previous
// save put under the name untouched and no temporary beside it; a save that
// completes replaces it.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.sfck")
	payload := bytes.Repeat([]byte("weights "), 4096)
	save := func(limit int) error {
		return writeFileAtomic(path, func(w io.Writer) error {
			_, err := (&failAfter{w: w, n: limit}).Write(payload)
			return err
		})
	}
	only := func(want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if want == nil && !errors.Is(err, os.ErrNotExist) || want != nil && !bytes.Equal(got, want) {
			t.Fatalf("%s holds %d bytes (%v), want %d", path, len(got), err, len(want))
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.Name() != filepath.Base(path) {
				t.Fatalf("left %s behind", e.Name())
			}
		}
	}

	if err := save(1000); !errors.Is(err, errDiskFull) {
		t.Fatalf("failed first save returned %v", err)
	}
	only(nil)
	if err := save(len(payload)); err != nil {
		t.Fatal(err)
	}
	only(payload)
	payload = append(payload, "and more"...)
	if err := save(len(payload) - 1); !errors.Is(err, errDiskFull) {
		t.Fatalf("failed second save returned %v", err)
	}
	only(payload[:len(payload)-len("and more")])
	if err := save(len(payload)); err != nil {
		t.Fatal(err)
	}
	only(payload)
}
