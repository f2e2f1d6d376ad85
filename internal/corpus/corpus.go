// Package corpus generates deterministic synthetic test data spanning the
// compressibility range of the open-source corpora the paper uses (Silesia,
// Canterbury, Calgary, SnappyFiles). Those corpora are not redistributable
// inside this offline repository, so each Kind synthesizes data with the
// statistical texture of one corpus family: natural text, server logs,
// structured JSON, serialized protobuf-like records, columnar binary tables,
// and incompressible noise. HyperCompressBench's generator (internal/hcbench)
// only requires a chunk pool that spans a wide range of achieved compression
// ratios, which these generators provide.
package corpus

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
)

// Kind identifies a synthetic data family.
type Kind int

const (
	// Text resembles natural-language prose: a Markov chain over a fixed
	// vocabulary with punctuation and paragraph structure.
	Text Kind = iota
	// Log resembles datacenter server logs: timestamped lines with heavily
	// repeated field names and a long tail of identifiers.
	Log
	// JSON resembles structured API payloads: nested objects with a small
	// key vocabulary and mixed value entropy.
	JSON
	// Protobuf resembles serialized protocol buffers: tag/varint framing
	// with short embedded strings and numeric fields.
	Protobuf
	// Table resembles columnar binary tables: fixed-width records where most
	// columns are low-entropy.
	Table
	// HTML resembles markup: tags with high redundancy wrapping text.
	HTML
	// Skewed resembles pre-transformed data (columnar encodings, media
	// side-channels): a heavily skewed byte histogram with almost no
	// string-level redundancy, so dictionary coding finds little but entropy
	// coding still pays.
	Skewed
	// Random is incompressible noise, the ratio floor.
	Random
	// Zeros is a single repeated byte, the ratio ceiling.
	Zeros
)

// Kinds lists every corpus family, in declaration order.
var Kinds = []Kind{Text, Log, JSON, Protobuf, Table, HTML, Skewed, Random, Zeros}

func (k Kind) String() string {
	switch k {
	case Text:
		return "text"
	case Log:
		return "log"
	case JSON:
		return "json"
	case Protobuf:
		return "protobuf"
	case Table:
		return "table"
	case HTML:
		return "html"
	case Skewed:
		return "skewed"
	case Random:
		return "random"
	case Zeros:
		return "zeros"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

var words = []string{
	"the", "of", "and", "a", "to", "in", "is", "you", "that", "it",
	"he", "was", "for", "on", "are", "as", "with", "his", "they", "at",
	"be", "this", "have", "from", "or", "one", "had", "by", "word", "but",
	"not", "what", "all", "were", "we", "when", "your", "can", "said", "there",
	"use", "an", "each", "which", "she", "do", "how", "their", "if", "will",
	"up", "other", "about", "out", "many", "then", "them", "these", "so", "some",
	"her", "would", "make", "like", "him", "into", "time", "has", "look", "two",
	"more", "write", "go", "see", "number", "no", "way", "could", "people", "my",
	"than", "first", "water", "been", "call", "who", "oil", "its", "now", "find",
	"long", "down", "day", "did", "get", "come", "made", "may", "part", "over",
	"warehouse", "compression", "accelerator", "datacenter", "throughput", "latency",
	"hierarchy", "bandwidth", "pipeline", "speculative",
}

var logLevels = []string{"INFO", "WARN", "ERROR", "DEBUG", "TRACE"}
var logComponents = []string{
	"rpc.server", "storage.shard", "cache.l2", "net.dispatch", "auth.token",
	"compress.pool", "scheduler.node", "index.builder",
}
var jsonKeys = []string{
	"id", "name", "timestamp", "status", "payload", "metadata", "version",
	"region", "shard", "latency_us", "bytes", "checksum", "owner", "labels",
}
var htmlTags = []string{"div", "span", "p", "a", "li", "td", "h2", "section"}

// Generate returns size bytes of kind-shaped data, deterministic in seed.
func Generate(kind Kind, size int, seed int64) []byte {
	if size <= 0 {
		return nil
	}
	return AppendGenerate(make([]byte, 0, size+128), kind, size, seed)
}

// AppendGenerate appends size bytes of kind-shaped data to dst and returns
// the extended slice. The appended bytes are identical to Generate's output
// for the same (kind, size, seed); replay loops use this form to reuse one
// payload buffer across calls.
func AppendGenerate(dst []byte, kind Kind, size int, seed int64) []byte {
	if size <= 0 {
		return dst
	}
	return appendGen(rand.New(rand.NewSource(seed^int64(kind)<<32)), dst, kind, size)
}

// Gen generates corpus data through a reusable RNG, removing the per-call
// rand.New allocations of AppendGenerate. The zero value is ready to use.
// Output is byte-identical to Generate/AppendGenerate for the same
// (kind, size, seed). Not safe for concurrent use.
type Gen struct {
	rng *rand.Rand
}

// AppendGenerate appends size bytes of kind-shaped data to dst, reusing the
// generator's RNG state.
func (g *Gen) AppendGenerate(dst []byte, kind Kind, size int, seed int64) []byte {
	if size <= 0 {
		return dst
	}
	if g.rng == nil {
		g.rng = rand.New(rand.NewSource(0))
	}
	// Seed resets the underlying source to the same stream rand.New would
	// start, so reseeding in place is draw-for-draw identical to a fresh RNG.
	g.rng.Seed(seed ^ int64(kind)<<32)
	return appendGen(g.rng, dst, kind, size)
}

func appendGen(rng *rand.Rand, dst []byte, kind Kind, size int) []byte {
	// The generators overshoot by up to one record; they fill to the target
	// length and the tail is trimmed below.
	target := len(dst) + size
	switch kind {
	case Text:
		dst = genText(rng, dst, target)
	case Log:
		dst = genLog(rng, dst, target)
	case JSON:
		dst = genJSON(rng, dst, target)
	case Protobuf:
		dst = genProtobuf(rng, dst, target)
	case Table:
		dst = genTable(rng, dst, target)
	case HTML:
		dst = genHTML(rng, dst, target)
	case Skewed:
		for len(dst) < target {
			u := rng.Float64()
			// Square-law skew over a 64-value alphabet: entropy ~4.8
			// bits/byte with essentially no multi-byte repetition.
			dst = append(dst, byte(u*u*64))
		}
	case Random:
		for len(dst) < target {
			dst = append(dst, byte(rng.Intn(256)))
		}
	case Zeros:
		for len(dst) < target {
			dst = append(dst, 0)
		}
	default:
		panic("corpus: unknown kind")
	}
	return dst[:target]
}

// zipfWord picks a word with a skewed (roughly Zipfian) distribution so the
// vocabulary reuse mimics natural text.
func zipfWord(rng *rand.Rand) string {
	// Square a uniform variate to bias toward low indices.
	u := rng.Float64()
	idx := int(u * u * float64(len(words)))
	if idx >= len(words) {
		idx = len(words) - 1
	}
	return words[idx]
}

func genText(rng *rand.Rand, out []byte, size int) []byte {
	sentenceLen := 0
	for len(out) < size {
		w := zipfWord(rng)
		if sentenceLen == 0 {
			out = append(out, w[0]-'a'+'A')
			out = append(out, w[1:]...)
		} else {
			out = append(out, ' ')
			out = append(out, w...)
		}
		sentenceLen++
		if sentenceLen > 6 && rng.Intn(10) == 0 {
			out = append(out, '.')
			sentenceLen = 0
			if rng.Intn(6) == 0 {
				out = append(out, '\n', '\n')
			} else {
				out = append(out, ' ')
			}
		}
	}
	return out
}

// The generators format records with strconv appends rather than
// fmt.Sprintf: synthesis runs on the replay hot path, and Sprintf's argument
// boxing dominated the whole simulator's allocation profile. Draw order and
// output bytes are unchanged.
func genLog(rng *rand.Rand, out []byte, size int) []byte {
	ts := int64(1660000000000)
	for len(out) < size {
		ts += int64(rng.Intn(5000))
		out = strconv.AppendInt(out, ts, 10)
		out = append(out, ' ')
		out = append(out, logLevels[rng.Intn(len(logLevels))]...)
		out = append(out, ' ')
		out = append(out, logComponents[rng.Intn(len(logComponents))]...)
		out = append(out, " task="...)
		out = strconv.AppendInt(out, int64(rng.Intn(1<<16)), 10)
		out = append(out, " attempt="...)
		out = strconv.AppendInt(out, int64(rng.Intn(4)), 10)
		out = append(out, ` msg="`...)
		out = append(out, zipfWord(rng)...)
		out = append(out, ' ')
		out = append(out, zipfWord(rng)...)
		out = append(out, ' ')
		out = append(out, zipfWord(rng)...)
		out = append(out, `" dur_us=`...)
		out = strconv.AppendInt(out, int64(rng.Intn(1<<20)), 10)
		out = append(out, '\n')
	}
	return out
}

func genJSON(rng *rand.Rand, out []byte, size int) []byte {
	for len(out) < size {
		out = append(out, '{')
		n := 4 + rng.Intn(6)
		for i := 0; i < n; i++ {
			if i > 0 {
				out = append(out, ',')
			}
			k := jsonKeys[rng.Intn(len(jsonKeys))]
			out = append(out, '"')
			out = append(out, k...)
			out = append(out, '"', ':')
			// The vocabulary is plain ASCII, so quoting never escapes.
			switch rng.Intn(4) {
			case 0:
				out = strconv.AppendInt(out, int64(rng.Intn(1<<24)), 10)
			case 1:
				out = append(out, '"')
				out = append(out, zipfWord(rng)...)
				out = append(out, '-')
				out = append(out, zipfWord(rng)...)
				out = append(out, '"')
			case 2:
				out = append(out, `{"inner":"`...)
				out = append(out, zipfWord(rng)...)
				out = append(out, `","v":`...)
				out = strconv.AppendInt(out, int64(rng.Intn(100)), 10)
				out = append(out, '}')
			default:
				if rng.Intn(2) == 0 {
					out = append(out, "true"...)
				} else {
					out = append(out, "false"...)
				}
			}
		}
		out = append(out, '}', '\n')
	}
	return out
}

func genProtobuf(rng *rand.Rand, out []byte, size int) []byte {
	appendVarint := func(b []byte, v uint64) []byte {
		for v >= 0x80 {
			b = append(b, byte(v)|0x80)
			v >>= 7
		}
		return append(b, byte(v))
	}
	for len(out) < size {
		// A message with a handful of fields: varints, fixed64, strings.
		for f := 1; f <= 6; f++ {
			switch rng.Intn(3) {
			case 0: // varint field
				out = append(out, byte(f<<3|0))
				out = appendVarint(out, uint64(rng.Intn(1<<20)))
			case 1: // length-delimited string
				s := zipfWord(rng)
				out = append(out, byte(f<<3|2), byte(len(s)))
				out = append(out, s...)
			default: // fixed32
				out = append(out, byte(f<<3|5))
				v := uint32(rng.Intn(1 << 16)) // low entropy in high bytes
				out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
		}
	}
	return out
}

func genTable(rng *rand.Rand, out []byte, size int) []byte {
	rowID := uint32(rng.Intn(1 << 20))
	for len(out) < size {
		rowID++
		rec := [24]byte{}
		rec[0] = byte(rowID)
		rec[1] = byte(rowID >> 8)
		rec[2] = byte(rowID >> 16)
		rec[3] = byte(rowID >> 24)
		rec[4] = byte(rng.Intn(4))  // enum column
		rec[5] = byte(rng.Intn(2))  // flag column
		rec[6] = byte(rng.Intn(16)) // small numeric
		// columns 7..15 constant per stretch
		v := uint16(rng.Intn(1 << 10))
		rec[16] = byte(v)
		rec[17] = byte(v >> 8)
		out = append(out, rec[:]...)
	}
	return out
}

func genHTML(rng *rand.Rand, out []byte, size int) []byte {
	for len(out) < size {
		tag := htmlTags[rng.Intn(len(htmlTags))]
		out = append(out, '<')
		out = append(out, tag...)
		out = append(out, ` class="c`...)
		out = strconv.AppendInt(out, int64(rng.Intn(8)), 10)
		out = append(out, '"', '>')
		n := 1 + rng.Intn(8)
		for i := 0; i < n; i++ {
			if i > 0 {
				out = append(out, ' ')
			}
			out = append(out, zipfWord(rng)...)
		}
		out = append(out, '<', '/')
		out = append(out, tag...)
		out = append(out, '>', '\n')
	}
	return out
}

// File is a named synthetic corpus file.
type File struct {
	Name string
	Kind Kind
	Data []byte
}

// StandardSuite returns a fixed set of corpus files resembling the size
// distribution of the open-source benchmarks the paper analyzes in Figure 6:
// whole files in the hundreds of KiB to tens of MiB, with a median call size
// roughly 256x the fleet's median (~100 KiB vs fleet ~0.4 KiB-biased mix).
// Sizes here are scaled down ~4x from Silesia's to keep test runtime sane
// while preserving the "vastly larger than fleet calls" property.
func StandardSuite() []File {
	specs := []struct {
		name string
		kind Kind
		size int
		seed int64
	}{
		{"dickens.txt", Text, 2 << 20, 11},
		{"webster.txt", Text, 8 << 20, 12},
		{"nci.log", Log, 6 << 20, 13},
		{"mr.table", Table, 2 << 20, 14},
		{"samba.json", JSON, 4 << 20, 15},
		{"sao.bin", Random, 1 << 20, 16},
		{"osdb.pb", Protobuf, 2 << 20, 17},
		{"xml.html", HTML, 1 << 20, 18},
		{"x-ray.bin", Random, 2 << 20, 19},
		{"zeros.bin", Zeros, 1 << 20, 20},
		{"kennedy.table", Table, 256 << 10, 21},
		{"plrabn12.txt", Text, 512 << 10, 22},
		{"world192.txt", Text, 1 << 20, 23},
		{"fireworks.json", JSON, 128 << 10, 24},
		{"geo.pb", Protobuf, 128 << 10, 25},
		{"urls.log", Log, 512 << 10, 26},
		{"ooffice.bin", Skewed, 1 << 20, 27},
		{"reymont.bin", Skewed, 512 << 10, 28},
	}
	// Each file has its own seed, so the files are generated concurrently,
	// at most GOMAXPROCS at a time, and stored by index.
	files := make([]File, len(specs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, s := range specs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			files[i] = File{Name: s.name, Kind: s.kind, Data: Generate(s.kind, s.size, s.seed)}
		}()
	}
	wg.Wait()
	return files
}

// SmallSuite returns a reduced suite for fast unit tests: same kinds, much
// smaller sizes.
func SmallSuite() []File {
	files := make([]File, 0, len(Kinds))
	for i, k := range Kinds {
		files = append(files, File{
			Name: fmt.Sprintf("small-%s", k),
			Kind: k,
			Data: Generate(k, 64<<10, int64(100+i)),
		})
	}
	return files
}
