package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// LintExposition parses Prometheus text exposition format and returns every
// format violation found (empty slice = clean). It enforces what a scraper
// actually depends on:
//
//   - sample lines parse as `name{labels} value` with a valid metric name, a
//     well-formed label set (valid keys, quoted escaped values, no duplicate
//     keys), and a float value
//   - no duplicate series: (name, canonical label set) appears at most once
//   - one # TYPE per metric family, declared before its first sample, with
//     the family's samples contiguous (no interleaving between families)
//   - histogram buckets: within one series group, `le` bounds strictly
//     ascending, counts non-decreasing (cumulative convention), ending at a
//     le="+Inf" bucket that matches the family's _count sample
//
// The serving and fleet /metrics handlers are lint-tested against it so a
// malformed or duplicated series fails CI instead of a scrape. No production
// code calls it; it is not in a _test.go file because those tests live in
// other packages (service, fleet), which cannot import test files.
func LintExposition(r io.Reader) []string {
	var problems []string
	addf := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	typed := make(map[string]string)    // family -> declared TYPE
	familyDone := make(map[string]bool) // family -> samples seen and family left
	seen := make(map[string]bool)       // name + canonical labels -> present
	counts := make(map[string]float64)  // histogram family -> _count value (keyed with labels)

	// histogram bucket tracking: family+non-le labels -> bucket run state
	type bucketRun struct {
		lastLe    float64
		lastCount float64
		infCount  float64
		sawInf    bool
	}
	buckets := make(map[string]*bucketRun)

	currentFamily := ""
	lineNo := 0
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 3 && fields[1] == "TYPE" {
				family := fields[2]
				if _, dup := typed[family]; dup {
					addf("line %d: duplicate # TYPE for family %s", lineNo, family)
				}
				if familyDone[family] {
					addf("line %d: family %s re-opened after other families' samples (interleaved exposition)", lineNo, family)
				}
				if len(fields) < 4 {
					addf("line %d: # TYPE %s missing a kind", lineNo, family)
					typed[family] = ""
				} else {
					typed[family] = fields[3]
				}
				if currentFamily != "" && currentFamily != family {
					familyDone[currentFamily] = true
				}
				currentFamily = family
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			addf("line %d: %v", lineNo, err)
			continue
		}
		family := familyOf(name, typed)
		if _, ok := typed[family]; !ok {
			addf("line %d: sample %s has no preceding # TYPE for family %s", lineNo, name, family)
			typed[family] = "untyped"
		}
		if familyDone[family] {
			addf("line %d: sample %s appears after family %s was left (interleaved exposition)", lineNo, name, family)
		}
		if currentFamily != "" && family != currentFamily {
			familyDone[currentFamily] = true
		}
		currentFamily = family

		key := name + canonicalLabels(labels)
		if seen[key] {
			addf("line %d: duplicate series %s%s", lineNo, name, canonicalLabels(labels))
		}
		seen[key] = true

		if typed[family] == "histogram" {
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labels["le"]
				if !ok {
					addf("line %d: histogram bucket %s missing le label", lineNo, name)
					continue
				}
				groupKey := name + canonicalLabels(withoutLe(labels))
				run := buckets[groupKey]
				if run == nil {
					run = &bucketRun{lastLe: negInf()}
					buckets[groupKey] = run
				}
				if run.sawInf {
					addf("line %d: bucket after le=\"+Inf\" in %s", lineNo, groupKey)
				}
				if le == "+Inf" {
					run.sawInf = true
					run.infCount = value
				} else {
					bound, err := strconv.ParseFloat(le, 64)
					if err != nil {
						addf("line %d: unparsable le=%q in %s", lineNo, le, name)
						continue
					}
					if bound <= run.lastLe {
						addf("line %d: unsorted buckets in %s: le=%v after le=%v", lineNo, groupKey, bound, run.lastLe)
					}
					run.lastLe = bound
				}
				if value < run.lastCount {
					addf("line %d: non-cumulative buckets in %s: count %v after %v", lineNo, groupKey, value, run.lastCount)
				}
				run.lastCount = value
			case strings.HasSuffix(name, "_count"):
				counts[strings.TrimSuffix(name, "_count")+canonicalLabels(labels)] = value
			}
		}
	}
	if err := scanner.Err(); err != nil {
		addf("read: %v", err)
	}

	for groupKey, run := range buckets {
		base := strings.TrimSuffix(groupKey[:strings.Index(groupKey+"{", "{")], "_bucket")
		labelPart := ""
		if i := strings.Index(groupKey, "{"); i >= 0 {
			labelPart = groupKey[i:]
		}
		if !run.sawInf {
			problems = append(problems, fmt.Sprintf("histogram %s: no le=\"+Inf\" bucket", groupKey))
			continue
		}
		if count, ok := counts[base+labelPart]; ok && count != run.infCount {
			problems = append(problems, fmt.Sprintf(
				"histogram %s: +Inf bucket %v != _count %v", groupKey, run.infCount, count))
		}
	}
	sort.Strings(problems)
	return problems
}

func negInf() float64 { return -1e308 }

// familyOf strips the histogram/summary sample suffixes so _bucket/_sum/
// _count lines attribute to their declared family.
func familyOf(name string, typed map[string]string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if kind, ok := typed[base]; ok && (kind == "histogram" || kind == "summary") {
				return base
			}
		}
	}
	return name
}

// parseSample splits one exposition line into name, labels, and value.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	rest := line
	i := 0
	for i < len(rest) && isNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q: no metric name", line)
	}
	name, rest = rest[:i], rest[i:]
	labels = map[string]string{}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", nil, 0, fmt.Errorf("malformed sample %q: unterminated label set", line)
		}
		if err := parseLabels(rest[1:end], labels); err != nil {
			return "", nil, 0, fmt.Errorf("malformed sample %q: %v", line, err)
		}
		rest = rest[end+1:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 { // optional trailing timestamp
		return "", nil, 0, fmt.Errorf("malformed sample %q: want value [timestamp] after name", line)
	}
	value, err = parseValue(fields[0])
	if err != nil {
		return "", nil, 0, fmt.Errorf("malformed sample %q: bad value: %v", line, err)
	}
	return name, labels, value, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return 1e308, nil
	case "-Inf":
		return -1e308, nil
	case "NaN":
		return 0, nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels parses `k="v",k2="v2"` into labels, rejecting bad keys,
// unquoted values, invalid escapes, and duplicate keys.
func parseLabels(s string, labels map[string]string) error {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq <= 0 {
			return fmt.Errorf("label %q missing =", s)
		}
		key := s[:eq]
		if !isLabelKey(key) {
			return fmt.Errorf("invalid label key %q", key)
		}
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return fmt.Errorf("label %s value not quoted", key)
		}
		val := strings.Builder{}
		j := 1
		closed := false
		for j < len(s) {
			c := s[j]
			if c == '\\' {
				if j+1 >= len(s) {
					return fmt.Errorf("label %s: dangling escape", key)
				}
				switch s[j+1] {
				case '\\', '"':
					val.WriteByte(s[j+1])
				case 'n':
					val.WriteByte('\n')
				default:
					return fmt.Errorf("label %s: invalid escape \\%c", key, s[j+1])
				}
				j += 2
				continue
			}
			if c == '"' {
				closed = true
				j++
				break
			}
			val.WriteByte(c)
			j++
		}
		if !closed {
			return fmt.Errorf("label %s: unterminated value", key)
		}
		if _, dup := labels[key]; dup {
			return fmt.Errorf("duplicate label key %s", key)
		}
		labels[key] = val.String()
		s = s[j:]
		if len(s) > 0 {
			if s[0] != ',' {
				return fmt.Errorf("label set: expected , after %s", key)
			}
			s = s[1:]
		}
	}
	return nil
}

// canonicalLabels renders a label set sorted by key, for series identity.
func canonicalLabels(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func withoutLe(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}

func isNameChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case c >= '0' && c <= '9':
		return !first
	}
	return false
}

func isLabelKey(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
