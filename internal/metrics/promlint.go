// A pure-Go `promtool check metrics`-equivalent for the text
// exposition format, used by tests so /metricsz cannot silently drift
// out of scrapeable shape. It checks:
//
//   - every sample belongs to a family declared by a preceding # TYPE
//     line, and families are contiguous (no interleaving);
//   - no family is declared twice and no series is emitted twice;
//   - histogram bucket `le` bounds parse, are strictly ascending, and
//     bucket counts are cumulative (non-decreasing);
//   - every histogram series set has a `+Inf` bucket equal to its
//     `_count`, and both `_sum` and `_count` are present.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

type lintBucket struct {
	le    float64
	count float64
}

type lintHistogram struct {
	buckets  []lintBucket
	hasInf   bool
	infCount float64
	sum      *float64
	count    *float64
}

// Lint validates a Prometheus text exposition read from r, returning
// the number of metric families and series seen. Any format violation
// returns an error naming the offending line.
func Lint(r io.Reader) (families, series int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)

	types := make(map[string]string)         // family -> type
	seen := make(map[string]bool)            // full series key -> emitted
	closed := make(map[string]bool)          // family -> a different family started after it
	hists := make(map[string]*lintHistogram) // family + label key (minus le)
	histFamily := make(map[string]string)    // same key -> family, for error text
	current := ""
	lineNo := 0

	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if fields[1] == "TYPE" {
				if len(fields) < 4 {
					return 0, 0, fmt.Errorf("line %d: TYPE without a type", lineNo)
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return 0, 0, fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
				}
				if _, dup := types[name]; dup {
					return 0, 0, fmt.Errorf("line %d: duplicate TYPE for family %q", lineNo, name)
				}
				if closed[name] {
					return 0, 0, fmt.Errorf("line %d: family %q re-opened after other families", lineNo, name)
				}
				if current != "" && current != name {
					closed[current] = true
				}
				types[name] = typ
				current = name
				families++
			}
			continue
		}

		name, labels, value, perr := parseSample(line)
		if perr != nil {
			return 0, 0, fmt.Errorf("line %d: %v", lineNo, perr)
		}
		family, suffix := familyOf(name, types)
		if family == "" {
			return 0, 0, fmt.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		if family != current {
			if closed[family] {
				return 0, 0, fmt.Errorf("line %d: family %q not contiguous", lineNo, family)
			}
			if current != "" {
				closed[current] = true
			}
			current = family
		}
		key := name + "{" + labelKey(labels, false) + "}"
		if seen[key] {
			return 0, 0, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seen[key] = true
		series++

		if types[family] != "histogram" {
			if suffix != "" {
				return 0, 0, fmt.Errorf("line %d: %q has histogram suffix but family %q is a %s", lineNo, name, family, types[family])
			}
			continue
		}
		hkey := family + "{" + labelKey(labels, true) + "}"
		h := hists[hkey]
		if h == nil {
			h = &lintHistogram{}
			hists[hkey] = h
			histFamily[hkey] = family
		}
		switch suffix {
		case "_bucket":
			le, ok := labels["le"]
			if !ok {
				return 0, 0, fmt.Errorf("line %d: histogram bucket %s without le label", lineNo, name)
			}
			if le == "+Inf" {
				h.hasInf = true
				h.infCount = value
				if len(h.buckets) > 0 && value < h.buckets[len(h.buckets)-1].count {
					return 0, 0, fmt.Errorf("line %d: +Inf bucket count %v below previous bucket", lineNo, value)
				}
				continue
			}
			bound, perr := strconv.ParseFloat(le, 64)
			if perr != nil {
				return 0, 0, fmt.Errorf("line %d: bad le value %q", lineNo, le)
			}
			if h.hasInf {
				return 0, 0, fmt.Errorf("line %d: bucket le=%q after +Inf", lineNo, le)
			}
			if n := len(h.buckets); n > 0 {
				if bound <= h.buckets[n-1].le {
					return 0, 0, fmt.Errorf("line %d: le bounds not ascending (%v after %v)", lineNo, bound, h.buckets[n-1].le)
				}
				if value < h.buckets[n-1].count {
					return 0, 0, fmt.Errorf("line %d: bucket counts not cumulative (%v after %v)", lineNo, value, h.buckets[n-1].count)
				}
			}
			h.buckets = append(h.buckets, lintBucket{le: bound, count: value})
		case "_sum":
			h.sum = &value
		case "_count":
			h.count = &value
		default:
			return 0, 0, fmt.Errorf("line %d: bare sample %q in histogram family %q", lineNo, name, family)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	for hkey, h := range hists {
		fam := histFamily[hkey]
		if !h.hasInf {
			return 0, 0, fmt.Errorf("histogram %s (%s): missing +Inf bucket", fam, hkey)
		}
		if h.count == nil {
			return 0, 0, fmt.Errorf("histogram %s (%s): missing _count", fam, hkey)
		}
		if h.sum == nil {
			return 0, 0, fmt.Errorf("histogram %s (%s): missing _sum", fam, hkey)
		}
		if math.Abs(h.infCount-*h.count) > 1e-9 {
			return 0, 0, fmt.Errorf("histogram %s (%s): +Inf bucket %v != _count %v", fam, hkey, h.infCount, *h.count)
		}
	}
	return families, series, nil
}

// familyOf resolves a sample name to its declared family: exact match,
// or for histogram families the _bucket/_sum/_count suffixed names.
func familyOf(name string, types map[string]string) (family, suffix string) {
	if _, ok := types[name]; ok {
		return name, ""
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if typ, ok := types[base]; ok && typ == "histogram" {
				return base, suf
			}
		}
	}
	return "", ""
}

// labelKey canonicalizes a label set for identity checks; dropLe
// removes the le label so all series of one histogram group share a
// key.
func labelKey(labels map[string]string, dropLe bool) string {
	parts := make([]string, 0, len(labels))
	for k, v := range labels {
		if dropLe && k == "le" {
			continue
		}
		parts = append(parts, k+"="+v)
	}
	// Insertion order is map order; sort for determinism.
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, ",")
}

// parseSample parses `name{l1="v1",...} value` (labels optional).
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = make(map[string]string)
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		j := 1
		for {
			// label name
			k := j
			for k < len(rest) && isNameChar(rest[k], k == j) {
				k++
			}
			if k == j || k >= len(rest) || rest[k] != '=' {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			lname := rest[j:k]
			k++
			if k >= len(rest) || rest[k] != '"' {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			k++
			var val strings.Builder
			for k < len(rest) && rest[k] != '"' {
				if rest[k] == '\\' && k+1 < len(rest) {
					k++
					switch rest[k] {
					case 'n':
						val.WriteByte('\n')
					case '\\', '"':
						val.WriteByte(rest[k])
					default:
						return "", nil, 0, fmt.Errorf("bad escape in %q", line)
					}
				} else {
					val.WriteByte(rest[k])
				}
				k++
			}
			if k >= len(rest) {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			if _, dup := labels[lname]; dup {
				return "", nil, 0, fmt.Errorf("duplicate label %q in %q", lname, line)
			}
			labels[lname] = val.String()
			k++ // closing quote
			if k < len(rest) && rest[k] == ',' {
				j = k + 1
				continue
			}
			if k < len(rest) && rest[k] == '}' {
				rest = rest[k+1:]
				break
			}
			return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
		}
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) < 1 {
		return "", nil, 0, fmt.Errorf("sample %q has no value", line)
	}
	if fields[0] == "+Inf" || fields[0] == "-Inf" || fields[0] == "NaN" {
		value = math.Inf(1)
		if fields[0] == "-Inf" {
			value = math.Inf(-1)
		}
		if fields[0] == "NaN" {
			value = math.NaN()
		}
	} else if value, err = strconv.ParseFloat(fields[0], 64); err != nil {
		return "", nil, 0, fmt.Errorf("bad value %q in %q", fields[0], line)
	}
	return name, labels, value, nil
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && (c >= '0' && c <= '9')
}
