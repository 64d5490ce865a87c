package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
)

// The one tick-line shape producers send, split around its variable
// parts: {"office":"<name>","rssi":[<num>,…]}.
const (
	linePrefix = `{"office":"`
	lineRSSI   = `","rssi":[`
	lineSuffix = `]}`
)

// tickDecoder decodes the tick lines of one request. Lines of the
// canonical shape take a strict fast path; every other line goes to
// json.Unmarshal, so accepted inputs, decoded values and error text
// are exactly encoding/json's (FuzzTickLine pins this). The RSSI slice
// of a fast-path record aliases a buffer reused by the next decode,
// which is safe because Ingestor.Push copies the samples.
type tickDecoder struct {
	rssi   []float64
	office string // last office name, reused while lines repeat it
}

func newTickDecoder() *tickDecoder {
	// Non-nil from the start: "rssi":[] must decode to an empty,
	// non-nil slice, as encoding/json makes it.
	return &tickDecoder{rssi: make([]float64, 0, 128)}
}

// decode decodes one trimmed, non-empty line.
func (d *tickDecoder) decode(line []byte) (tickLine, error) {
	if rec, ok := d.fast(line); ok {
		return rec, nil
	}
	var rec tickLine
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// fast decodes line if it has the canonical shape exactly: keys in
// that order, no whitespace, an office name of printable ASCII without
// '"' or '\\', and numbers in JSON grammar that strconv.ParseFloat
// parses without error. It reports false for anything else.
func (d *tickDecoder) fast(line []byte) (tickLine, bool) {
	rest, ok := bytes.CutPrefix(line, []byte(linePrefix))
	if !ok {
		return tickLine{}, false
	}
	n := 0
	for n < len(rest) && rest[n] >= 0x20 && rest[n] <= 0x7e && rest[n] != '"' && rest[n] != '\\' {
		n++
	}
	name := rest[:n]
	nums, ok := bytes.CutPrefix(rest[n:], []byte(lineRSSI))
	if !ok {
		return tickLine{}, false
	}
	if nums, ok = bytes.CutSuffix(nums, []byte(lineSuffix)); !ok {
		return tickLine{}, false
	}
	rssi := d.rssi[:0]
	for i := 0; i < len(nums); i++ {
		v, end, ok := parseNumber(nums, i)
		if !ok || (end < len(nums) && (nums[end] != ',' || end == len(nums)-1)) {
			return tickLine{}, false
		}
		rssi = append(rssi, v)
		i = end
	}
	d.rssi = rssi
	if string(name) != d.office {
		d.office = string(name)
	}
	return tickLine{Office: d.office, RSSI: rssi}, true
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber parses the JSON number
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? starting at b[i] and
// returns the value strconv.ParseFloat gives for it and its end. ok is
// false when no JSON number starts there (ParseFloat alone would also
// take inf, 0x1p3, +1, .5 and 1.) or when ParseFloat fails on it.
//
// A number whose digits form an integer m < 2^53 and whose decimal
// exponent e is within ±22 is m·10^e or m/10^−e of two float64 values
// that hold m and 10^|e| exactly. One IEEE multiply or divide rounds
// that to nearest, as ParseFloat rounds the decimal, so the bits are
// the same. Other numbers go to ParseFloat.
func parseNumber(b []byte, i int) (v float64, end int, ok bool) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, exp := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		frac := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
		if i == frac {
			return 0, 0, false
		}
		exp = frac - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		sign := 1
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			if b[i] == '-' {
				sign = -1
			}
			i++
		}
		first, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, 0, false
		}
		exp += sign * e
	}
	if digits <= 19 && mant < 1<<53 && -22 <= exp && exp <= 22 {
		v = float64(mant)
		if neg {
			v = -v
		}
		if exp >= 0 {
			return v * exactPow10[exp], i, true
		}
		return v / exactPow10[-exp], i, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, i, err == nil
}
