package web

import (
	"fmt"
	"sort"

	"repro/internal/simrand"
)

// Pool is one exchange's slice of the universe: its member sites.
type Pool struct {
	// Benign lists the pool's benign sites.
	Benign []*Site
	// MalByKind lists the pool's malicious sites per kind. Every kind
	// with sites in the universe is represented (Table II domain counts
	// permitting).
	MalByKind map[MaliceKind][]*Site
}

// PoolSpec requests a pool with the given site counts — calibrated from
// Table II (total domains, malware domains) per exchange.
type PoolSpec struct {
	Benign    int
	Malicious int
}

// SplitPools partitions the universe's sites into disjoint per-exchange
// pools. Benign sites are dealt without reuse; malicious sites are dealt
// per kind, giving each pool at least one site of every kind before
// distributing the remainder by the Table III kind weights. It returns an
// error when the universe is too small for the combined request.
func (u *Universe) SplitPools(rng *simrand.Source, specs []PoolSpec) ([]*Pool, error) {
	totalBenign, totalMal := 0, 0
	for _, sp := range specs {
		totalBenign += sp.Benign
		totalMal += sp.Malicious
	}
	if totalBenign > len(u.byKind[Benign]) {
		return nil, fmt.Errorf("web: pools need %d benign sites, universe has %d",
			totalBenign, len(u.byKind[Benign]))
	}
	if totalMal > len(u.MaliciousSites()) {
		return nil, fmt.Errorf("web: pools need %d malicious sites, universe has %d",
			totalMal, len(u.MaliciousSites()))
	}

	// Benign sites are simply shuffled. Malicious sites are dealt in a
	// stratified order (balanced across TLD and content category), so
	// that even a tiny pool slice — SendSurf's Table II row gives it only
	// a handful of malware domains, which then absorb half its URL
	// observations — still reflects the global Figure 6/7 mixes instead
	// of whatever a lucky draw happened to contain.
	benign := shuffled(rng.Sub("pool:benign"), u.byKind[Benign])
	malByKind := make(map[MaliceKind][]*Site, len(kindOrder))
	for _, k := range kindOrder {
		malByKind[k] = stratifiedOrder(rng.Sub("pool:"+k.String()), u.byKind[k])
	}

	pools := make([]*Pool, len(specs))
	bi := 0
	cursor := make(map[MaliceKind]int, len(kindOrder))
	weights := KindWeights()
	for i, sp := range specs {
		p := &Pool{MalByKind: make(map[MaliceKind][]*Site)}
		p.Benign = benign[bi : bi+sp.Benign]
		bi += sp.Benign

		// Large pools get one site of each kind first so rare kinds
		// (Flash, shortened) exist everywhere. Small pools skip that:
		// with only a handful of slots, spending one slot per rare kind
		// would leave the dominant kinds (Miscellaneous carries 66% of
		// malicious observations) a single site each, concentrating huge
		// observation mass on one domain and wrecking the Figure 6/7
		// mixes. Small pools therefore allocate proportionally, giving
		// the heavy kinds several sites and dropping the rare ones.
		budget := sp.Malicious
		if budget >= 2*len(kindOrder) {
			for _, k := range kindOrder {
				if budget == 0 {
					break
				}
				if cursor[k] < len(malByKind[k]) {
					p.MalByKind[k] = append(p.MalByKind[k], malByKind[k][cursor[k]])
					cursor[k]++
					budget--
				}
			}
		} else {
			// Largest-remainder apportionment over kind weights.
			total := 0.0
			for _, k := range kindOrder {
				if cursor[k] < len(malByKind[k]) {
					total += weights[k]
				}
			}
			remaining := budget
			fracs := make([]float64, len(kindOrder))
			for i, k := range kindOrder {
				if cursor[k] >= len(malByKind[k]) || total == 0 {
					fracs[i] = -1
					continue
				}
				exact := weights[k] / total * float64(remaining)
				take := int(exact)
				if avail := len(malByKind[k]) - cursor[k]; take > avail {
					take = avail
				}
				for j := 0; j < take; j++ {
					p.MalByKind[k] = append(p.MalByKind[k], malByKind[k][cursor[k]])
					cursor[k]++
					budget--
				}
				fracs[i] = exact - float64(take)
			}
			for budget > 0 {
				best, bestFrac := -1, -1.0
				for i, k := range kindOrder {
					if fracs[i] > bestFrac && cursor[k] < len(malByKind[k]) {
						best, bestFrac = i, fracs[i]
					}
				}
				if best < 0 {
					break
				}
				k := kindOrder[best]
				p.MalByKind[k] = append(p.MalByKind[k], malByKind[k][cursor[k]])
				cursor[k]++
				fracs[best] = -1
				budget--
			}
		}
		for budget > 0 {
			// Weighted pick among kinds with remaining supply.
			kinds, ws := make([]MaliceKind, 0, len(kindOrder)), make([]float64, 0, len(kindOrder))
			for _, k := range kindOrder {
				if cursor[k] < len(malByKind[k]) {
					kinds = append(kinds, k)
					ws = append(ws, weights[k])
				}
			}
			if len(kinds) == 0 {
				return nil, fmt.Errorf("web: ran out of malicious sites while filling pool %d", i)
			}
			k := simrand.WeightedPick(rng, kinds, ws)
			p.MalByKind[k] = append(p.MalByKind[k], malByKind[k][cursor[k]])
			cursor[k]++
			budget--
		}
		pools[i] = p
	}
	return pools, nil
}

// ObservationWeights returns per-site rotation weights that correct a
// pool slice toward the universe's global TLD and content-category mixes.
// Exchanges use these weights when rotating malicious member sites, so a
// pool that Table II forces to be tiny (SendSurf's 63 malware domains
// carry 109k malicious URLs in the paper) still produces Figure 6/7-shaped
// URL observations.
//
// Weights are fitted by iterative proportional fitting (raking) against
// the two marginal targets, each restricted to the values present in the
// slice and renormalized — the least-biased correction a finite slice
// admits.
func ObservationWeights(sites []*Site) []float64 {
	n := len(sites)
	if n == 0 {
		return nil
	}
	// Present-value target marginals.
	tldTarget := presentMarginal(sites, func(s *Site) string { return s.TLD }, func(v string) float64 { return tldShare(v) })
	catTarget := presentMarginal(sites, func(s *Site) string { return string(s.Category) }, func(v string) float64 { return categoryShare(Category(v)) })

	w := make([]float64, n)
	for i := range w {
		w[i] = 1.0 / float64(n)
	}
	for iter := 0; iter < 30; iter++ {
		rake(sites, w, func(s *Site) string { return s.TLD }, tldTarget)
		rake(sites, w, func(s *Site) string { return string(s.Category) }, catTarget)
	}
	return w
}

// presentMarginal builds the target distribution over the attribute values
// actually present in the slice, renormalized to sum to 1.
func presentMarginal(sites []*Site, attr func(*Site) string, share func(string) float64) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range sites {
		v := attr(s)
		if _, ok := out[v]; !ok {
			out[v] = share(v)
		}
	}
	total := 0.0
	for _, v := range out {
		total += v
	}
	if total <= 0 {
		uniform := 1.0 / float64(len(out))
		for k := range out {
			out[k] = uniform
		}
		return out
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// rake rescales weights so the attribute's weighted marginal matches the
// target.
func rake(sites []*Site, w []float64, attr func(*Site) string, target map[string]float64) {
	current := make(map[string]float64, len(target))
	for i, s := range sites {
		current[attr(s)] += w[i]
	}
	for i, s := range sites {
		v := attr(s)
		if cur := current[v]; cur > 0 {
			w[i] *= target[v] / cur
		}
	}
}

func tldShare(tld string) float64 {
	for i, name := range tldNames {
		if name == tld {
			return tldWeights[i]
		}
	}
	return 0.005 // unlisted TLDs (e.g. shorteners) get a small floor
}

func categoryShare(c Category) float64 {
	for i, name := range categoryNames {
		if name == c {
			return categoryWeights[i]
		}
	}
	return 0.02
}

func shuffled(rng *simrand.Source, in []*Site) []*Site {
	out := make([]*Site, len(in))
	copy(out, in)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// stratifiedOrder arranges sites so that every contiguous prefix (and
// therefore every pool slice dealt from the stream) approximates the
// population's joint TLD x category mix. Sites are bucketed by stratum
// and emitted by a largest-deficit stream: at each step the bucket whose
// emitted share lags its population share the most goes next. Randomness
// only shuffles order within a bucket, keeping the result seed-stable.
func stratifiedOrder(rng *simrand.Source, in []*Site) []*Site {
	if len(in) <= 2 {
		return shuffled(rng, in)
	}
	type bucket struct {
		sites   []*Site
		total   float64
		emitted int
	}
	byKey := make(map[string]*bucket)
	var keys []string
	for _, s := range in {
		key := s.TLD + "|" + string(s.Category)
		b, ok := byKey[key]
		if !ok {
			b = &bucket{}
			byKey[key] = b
			keys = append(keys, key)
		}
		b.sites = append(b.sites, s)
	}
	sort.Strings(keys)
	n := float64(len(in))
	for _, key := range keys {
		b := byKey[key]
		b.total = float64(len(b.sites)) / n
		sub := rng.Sub("stratum:" + key)
		sub.Shuffle(len(b.sites), func(i, j int) { b.sites[i], b.sites[j] = b.sites[j], b.sites[i] })
	}
	out := make([]*Site, 0, len(in))
	for len(out) < len(in) {
		bestKey, bestDeficit := "", -1.0
		for _, key := range keys {
			b := byKey[key]
			if b.emitted >= len(b.sites) {
				continue
			}
			// Deficit of this stratum if we do NOT emit from it now.
			deficit := b.total*float64(len(out)+1) - float64(b.emitted)
			if deficit > bestDeficit {
				bestKey, bestDeficit = key, deficit
			}
		}
		b := byKey[bestKey]
		out = append(out, b.sites[b.emitted])
		b.emitted++
	}
	return out
}
