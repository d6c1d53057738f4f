package main

import (
	"math"
	"sort"
	"strconv"
	"strings"
)

// promSet is one Prometheus text scrape: series (name plus labels) to value.
type promSet map[string]float64

func parseProm(text string) promSet {
	out := promSet{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of a metric family, whatever its labels.
func (p promSet) sum(name string) float64 {
	s := 0.0
	for k, v := range p {
		if k == name || strings.HasPrefix(k, name+"{") {
			s += v
		}
	}
	return s
}

// delta is a counter's increase between two snapshots, summed over the
// given engines.
func delta(a, b snapshot, engines []string, name string) float64 {
	d := 0.0
	for _, e := range engines {
		d += b.prom[e].sum(name) - a.prom[e].sum(name)
	}
	return d
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
