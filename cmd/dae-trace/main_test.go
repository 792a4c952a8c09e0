package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/traceio"
)

// readStreams decodes a trace file of any format into its streams.
func readStreams(t *testing.T, path string) (traceio.Header, [][]isa.Inst) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	h, streams, err := decodeStreams(f, "auto")
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return h, streams
}

// TestImportMultipleInputs: `import -i a,b,c` writes one container
// stream per single-stream input, in the order given, each holding
// exactly that input's records.
func TestImportMultipleInputs(t *testing.T) {
	dir := t.TempDir()
	inputs := []struct {
		bench string
		n     int
	}{
		{"swim", 300},
		{"fpppp", 500},
		{"tomcatv", 200},
	}
	var paths []string
	for i, in := range inputs {
		p := filepath.Join(dir, in.bench+".trace")
		err := cmdGen([]string{"-bench", in.bench, "-n", strconv.Itoa(in.n),
			"-seed", strconv.Itoa(i), "-o", p})
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	out := filepath.Join(dir, "all.dct")
	if err := cmdImport([]string{"-i", strings.Join(paths, ","), "-o", out}); err != nil {
		t.Fatal(err)
	}

	h, streams := readStreams(t, out)
	if h.Streams != len(inputs) || len(streams) != len(inputs) {
		t.Fatalf("container has %d streams (header %d), want %d", len(streams), h.Streams, len(inputs))
	}
	for i, in := range inputs {
		if len(streams[i]) != in.n {
			t.Errorf("stream %d: %d records, want %d", i, len(streams[i]), in.n)
		}
		_, want := readStreams(t, paths[i])
		if !reflect.DeepEqual(streams[i], want[0]) {
			t.Errorf("stream %d does not hold %s's records", i, in.bench)
		}
	}

	// A container input contributes all of its streams, in order.
	again := filepath.Join(dir, "again.dct")
	if err := cmdImport([]string{"-i", out + "," + paths[0], "-o", again}); err != nil {
		t.Fatal(err)
	}
	_, combined := readStreams(t, again)
	if !reflect.DeepEqual(combined, append(streams, streams[0])) {
		t.Errorf("container+file import: got %d streams, want the container's %d then the file's",
			len(combined), len(streams))
	}

	if err := cmdImport([]string{"-i", paths[0] + "," + filepath.Join(dir, "missing.trace"), "-o", again}); err == nil {
		t.Error("import with a missing input succeeded")
	}
}
