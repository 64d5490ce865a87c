package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"testing"

	"fadewich/internal/rng"
)

// canonicalLine is the shape producers send, which the fast path takes.
const canonicalLine = `{"office":"hq-0","rssi":[-60.5,-61,-58.25]}`

// FuzzTickLine is the differential check of the tick-line decoder: on
// any byte line it must agree with json.Unmarshal on acceptance, error
// text, Office, Input, and on RSSI's nil-ness, length and sample bits.
// Each input is decoded after a canonical line, so the reused sample
// buffer and office name are dirty when the fuzzed line arrives.
func FuzzTickLine(f *testing.F) {
	for _, seed := range []string{
		canonicalLine,
		`{"office":"a","rssi":[]}`,
		`{"office":"a","rssi":[01]}`,
		`{"office":"a","rssi":[1.]}`,
		`{"office":"a","rssi":[-0]}`,
		`{"office":"a","rssi":[1e400]}`,
		`{"office":"a","rssi":[1e-400]}`,
		`{"office":"a","rssi":[1E+2]}`,
		`{"office":"a","rssi":[-67.30000305175781,9007199254740993,9007199254740991e-22,1e22,1e23,0.1e-21]}`,
		`{"office":"a","rssi":[12345678901234567890,1.5e-0000000000000000000000000000003]}`,
		`{"office":"a","rssi":[inf]}`,
		`{"office":"a","rssi":[0x1p3]}`,
		`{"office":"a","rssi":[+1,.5]}`,
		`{"office":"a","rssi":[1,]}`,
		`{"Office":"a","rssi":[1]}`,
		`{"office":"a","office":"b","rssi":[1]}`,
		`{"office":"a","rssi":[1],"rssi":[2]}`,
		`{"office":"a","rssi":[1]}`,
		`{"office":"a\"b","rssi":[1]}`,
		"{\"office\":\"a\xff\",\"rssi\":[1]}",
		`{"office":"é","rssi":[1]}`,
		`{"office":"a","rssi":[1]}x`,
		`{"office":"a","rssi":[1]}}`,
		`{"office":"a","rssi":null}`,
		`{"office":"a","input":2.0}`,
		`{"office":"a","input":2}`,
		`{"office":"a","rssi":[1],"input":0}`,
		`{"rssi":[1],"office":"a"}`,
		`{"office": "a", "rssi": [1, 2]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want tickLine
		wantErr := json.Unmarshal(line, &want)

		d := newTickDecoder()
		if _, err := d.decode([]byte(canonicalLine)); err != nil {
			t.Fatal(err)
		}
		got, gotErr := d.decode(line)

		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%q: decode error %v, json.Unmarshal error %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: decode error %q, json.Unmarshal error %q", line, gotErr, wantErr)
			}
			return
		}
		if got.Office != want.Office || !reflect.DeepEqual(got.Input, want.Input) {
			t.Fatalf("%q: decoded office %q input %v, json.Unmarshal office %q input %v",
				line, got.Office, got.Input, want.Office, want.Input)
		}
		if (got.RSSI == nil) != (want.RSSI == nil) || len(got.RSSI) != len(want.RSSI) {
			t.Fatalf("%q: decoded rssi %#v, json.Unmarshal rssi %#v", line, got.RSSI, want.RSSI)
		}
		for i := range want.RSSI {
			if math.Float64bits(got.RSSI[i]) != math.Float64bits(want.RSSI[i]) {
				t.Fatalf("%q: sample %d decoded %v, json.Unmarshal %v", line, i, got.RSSI[i], want.RSSI[i])
			}
		}
	})
}

// TestParseNumberMatchesParseFloat: on JSON numbers, parseNumber's
// value is bit for bit strconv.ParseFloat's, on both sides of its
// exact-arithmetic shortcut: 2^53 mantissas, ±22 exponents, 19 digits.
func TestParseNumberMatchesParseFloat(t *testing.T) {
	nums := []string{
		"0", "-0", "0.0", "-0e5", "1", "-1", "9007199254740991", "9007199254740992",
		"9007199254740993", "-9007199254740993", "1e22", "1e23", "1e-22", "1e-23",
		"9007199254740991e22", "9007199254740991e-22", "9007199254740993e-22",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789",
		"1E+2", "1e-400", "123456789e-30", "4.9e-324", "2.2250738585072014e-308",
		"1.7976931348623157e308", "0.000000000000000000001",
	}
	src := rng.New(11)
	for i := 0; i < 20000; i++ {
		f32 := float64(float32(src.Normal(-60, 15)))
		bits := math.Float64frombits(src.Uint64())
		nums = append(nums,
			strconv.FormatFloat(f32, 'g', -1, 64),
			strconv.FormatFloat(f32, 'f', src.Intn(25), 64),
			strconv.FormatFloat(src.Normal(0, 1e6), 'e', src.Intn(20), 64),
			strconv.Itoa(src.Intn(1e9))+"e"+strconv.Itoa(src.Intn(60)-30))
		if !math.IsNaN(bits) && !math.IsInf(bits, 0) {
			nums = append(nums, strconv.FormatFloat(bits, 'g', -1, 64))
		}
	}
	for _, num := range nums {
		want, wantErr := strconv.ParseFloat(num, 64)
		got, end, ok := parseNumber([]byte(num), 0)
		if end != len(num) && ok || ok != (wantErr == nil) || ok && math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: parseNumber %v (end %d, ok %v), ParseFloat %v (%v)", num, got, end, ok, want, wantErr)
		}
	}
}

// BenchmarkTickDecode decodes one deployment-shape tick line (72
// streams; float32 RSSI samples widened to float64 and formatted as the
// serving benchmark's producers format them) with json.Unmarshal and
// with the decoder the ingest path uses.
func BenchmarkTickDecode(b *testing.B) {
	src := rng.New(101)
	line := []byte(`{"office":"office-07","rssi":[`)
	for i := 0; i < 72; i++ {
		if i > 0 {
			line = append(line, ',')
		}
		line = strconv.AppendFloat(line, float64(float32(src.Normal(-60, 4))), 'g', -1, 64)
	}
	line = append(line, "]}"...)

	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var rec tickLine
			if err := json.Unmarshal(line, &rec); err != nil || len(rec.RSSI) != 72 {
				b.Fatal(err)
			}
		}
	})
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		d := newTickDecoder()
		for i := 0; i < b.N; i++ {
			if rec, err := d.decode(line); err != nil || len(rec.RSSI) != 72 {
				b.Fatal(err)
			}
		}
	})
}
