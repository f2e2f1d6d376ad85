package corpus

import (
	"bytes"
	"runtime"
	"testing"
)

func TestGenerateSizes(t *testing.T) {
	for _, k := range Kinds {
		for _, size := range []int{0, 1, 100, 64 << 10} {
			got := Generate(k, size, 42)
			if len(got) != size {
				t.Errorf("Generate(%v, %d): len = %d", k, size, len(got))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds {
		a := Generate(k, 32<<10, 7)
		b := Generate(k, 32<<10, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("Generate(%v) not deterministic", k)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	for _, k := range Kinds {
		if k == Zeros {
			continue
		}
		a := Generate(k, 32<<10, 1)
		b := Generate(k, 32<<10, 2)
		if bytes.Equal(a, b) {
			t.Errorf("Generate(%v) identical across seeds", k)
		}
	}
}

// entropy8 approximates compressibility with a 0-order byte histogram check:
// count distinct bytes as a cheap proxy.
func distinctBytes(b []byte) int {
	var seen [256]bool
	n := 0
	for _, c := range b {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

func TestKindsSpanEntropyRange(t *testing.T) {
	z := Generate(Zeros, 16<<10, 1)
	r := Generate(Random, 16<<10, 1)
	tx := Generate(Text, 16<<10, 1)
	if distinctBytes(z) != 1 {
		t.Errorf("zeros has %d distinct bytes", distinctBytes(z))
	}
	if distinctBytes(r) < 250 {
		t.Errorf("random has only %d distinct bytes", distinctBytes(r))
	}
	dt := distinctBytes(tx)
	if dt < 20 || dt > 100 {
		t.Errorf("text distinct bytes = %d, want letter-ish alphabet", dt)
	}
}

func TestStandardSuite(t *testing.T) {
	files := StandardSuite()
	if len(files) < 10 {
		t.Fatalf("suite too small: %d", len(files))
	}
	var total int
	for _, f := range files {
		if len(f.Data) == 0 {
			t.Errorf("%s empty", f.Name)
		}
		total += len(f.Data)
	}
	if total < 16<<20 {
		t.Errorf("suite total %d bytes, want >= 16 MiB", total)
	}
}

func TestStandardSuiteIndependentOfGOMAXPROCS(t *testing.T) {
	suite := func(procs int) []File {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return StandardSuite()
	}
	serial, parallel := suite(1), suite(4)
	if len(serial) != len(parallel) {
		t.Fatalf("%d files at GOMAXPROCS 1, %d at 4", len(serial), len(parallel))
	}
	for i := range serial {
		a, b := serial[i], parallel[i]
		if a.Name != b.Name || a.Kind != b.Kind || !bytes.Equal(a.Data, b.Data) {
			t.Errorf("file %d: %s at GOMAXPROCS 1, %s at 4", i, a.Name, b.Name)
		}
	}
}

func TestSmallSuiteCoversAllKinds(t *testing.T) {
	files := SmallSuite()
	if len(files) != len(Kinds) {
		t.Fatalf("small suite has %d files, want %d", len(files), len(Kinds))
	}
	seen := map[Kind]bool{}
	for _, f := range files {
		seen[f.Kind] = true
	}
	for _, k := range Kinds {
		if !seen[k] {
			t.Errorf("kind %v missing", k)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestGenReusedMatchesGenerate(t *testing.T) {
	var g Gen
	buf := make([]byte, 0, 8<<10)
	for _, kind := range Kinds {
		for _, seed := range []int64{1, 7, 99} {
			want := Generate(kind, 4096, seed)
			buf = g.AppendGenerate(buf[:0], kind, 4096, seed)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%v seed %d: reused Gen output diverges from Generate", kind, seed)
			}
		}
	}
}

func TestGenSteadyStateAllocs(t *testing.T) {
	var g Gen
	buf := make([]byte, 0, 8<<10)
	buf = g.AppendGenerate(buf[:0], Text, 4096, 3) // warm the RNG
	allocs := testing.AllocsPerRun(50, func() {
		buf = g.AppendGenerate(buf[:0], Log, 4096, 5)
	})
	if allocs != 0 {
		t.Errorf("steady-state Gen.AppendGenerate: %v allocs/call, want 0", allocs)
	}
}
