//go:build !unix

package store

import (
	"io"
	"os"
)

// mmapFile on platforms without syscall.Mmap degrades to reading the
// file into memory: the packfile read path keeps its semantics, it just
// pays RAM for them.
func mmapFile(f *os.File, size int64) ([]byte, func() error, error) {
	data := make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, err
	}
	return data, func() error { return nil }, nil
}
