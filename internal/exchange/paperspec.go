package exchange

// PaperSpec records one exchange's published measurements from Table I and
// Table II — the calibration targets the reproduction scales from.
type PaperSpec struct {
	Name string
	Host string
	Kind Kind
	// Table I columns.
	URLsCrawled      int
	SelfReferrals    int
	PopularReferrals int
	RegularURLs      int
	MaliciousURLs    int
	// Table II columns.
	Domains        int
	MalwareDomains int
	// MinSurfSeconds is the exchange's surf timer (10s-10min across the
	// ecosystem; per-exchange values are representative).
	MinSurfSeconds int
	// Campaigns gives manual-surf exchanges their Figure 3 burst windows.
	Campaigns []CampaignWindow
}

// MalFrac is the Table I malicious share among regular URLs.
func (p PaperSpec) MalFrac() float64 {
	if p.RegularURLs == 0 {
		return 0
	}
	return float64(p.MaliciousURLs) / float64(p.RegularURLs)
}

// SelfFrac is the Table I self-referral share of crawled URLs.
func (p PaperSpec) SelfFrac() float64 {
	if p.URLsCrawled == 0 {
		return 0
	}
	return float64(p.SelfReferrals) / float64(p.URLsCrawled)
}

// PopularFrac is the Table I popular-referral share of crawled URLs.
func (p PaperSpec) PopularFrac() float64 {
	if p.URLsCrawled == 0 {
		return 0
	}
	return float64(p.PopularReferrals) / float64(p.URLsCrawled)
}

// Config derives an exchange Config from the spec.
func (p PaperSpec) Config() Config {
	return Config{
		Name:           p.Name,
		Host:           p.Host,
		Kind:           p.Kind,
		MinSurfSeconds: p.MinSurfSeconds,
		SelfFrac:       p.SelfFrac(),
		PopularFrac:    p.PopularFrac(),
		MalFrac:        p.MalFrac(),
		Campaigns:      p.Campaigns,
	}
}

// PaperSpecs returns the nine exchanges with their Table I and Table II
// values. Manual-surf exchanges carry campaign windows that produce the
// temporal bursts of Figure 3(b); Traffic Monsoon gets several, matching
// the paper's observation that it "has several bursts of malware". Window
// densities are chosen so the overall malicious share still meets the
// Table I column (the out-of-window baseline is solved at construction).
func PaperSpecs() []PaperSpec {
	return []PaperSpec{
		{
			Name: "10KHits", Host: "10khits.sim", Kind: AutoSurf,
			URLsCrawled: 218353, SelfReferrals: 13663, PopularReferrals: 24328,
			RegularURLs: 180362, MaliciousURLs: 61015,
			Domains: 4823, MalwareDomains: 724, MinSurfSeconds: 60,
		},
		{
			Name: "ManyHits", Host: "manyhit.sim", Kind: AutoSurf,
			URLsCrawled: 178939, SelfReferrals: 10860, PopularReferrals: 20890,
			RegularURLs: 147189, MaliciousURLs: 21527,
			Domains: 3705, MalwareDomains: 522, MinSurfSeconds: 30,
		},
		{
			Name: "Smiley Traffic", Host: "smileytraffic.sim", Kind: AutoSurf,
			URLsCrawled: 244677, SelfReferrals: 15789, PopularReferrals: 12847,
			RegularURLs: 216041, MaliciousURLs: 18853,
			Domains: 3367, MalwareDomains: 320, MinSurfSeconds: 20,
		},
		{
			Name: "SendSurf", Host: "sendsurf.sim", Kind: AutoSurf,
			URLsCrawled: 246967, SelfReferrals: 17537, PopularReferrals: 19174,
			RegularURLs: 210256, MaliciousURLs: 109111,
			Domains: 1460, MalwareDomains: 63, MinSurfSeconds: 15,
		},
		{
			Name: "Otohits", Host: "otohits.sim", Kind: AutoSurf,
			URLsCrawled: 96316, SelfReferrals: 52167, PopularReferrals: 9336,
			RegularURLs: 34813, MaliciousURLs: 2571,
			Domains: 2106, MalwareDomains: 292, MinSurfSeconds: 10,
		},
		{
			Name: "Cash N Hits", Host: "cashnhits.sim", Kind: ManualSurf,
			URLsCrawled: 4795, SelfReferrals: 416, PopularReferrals: 298,
			RegularURLs: 4081, MaliciousURLs: 418,
			Domains: 614, MalwareDomains: 105, MinSurfSeconds: 30,
			Campaigns: []CampaignWindow{
				{StartFrac: 0.35, EndFrac: 0.45, MalDensity: 0.75},
			},
		},
		{
			Name: "Easyhits4u", Host: "easyhits4u.sim", Kind: ManualSurf,
			URLsCrawled: 4638, SelfReferrals: 703, PopularReferrals: 694,
			RegularURLs: 3241, MaliciousURLs: 336,
			Domains: 489, MalwareDomains: 70, MinSurfSeconds: 20,
			Campaigns: []CampaignWindow{
				{StartFrac: 0.60, EndFrac: 0.70, MalDensity: 0.70},
			},
		},
		{
			Name: "Hit2Hit", Host: "hit2hit.sim", Kind: ManualSurf,
			URLsCrawled: 3355, SelfReferrals: 651, PopularReferrals: 211,
			RegularURLs: 2493, MaliciousURLs: 212,
			Domains: 418, MalwareDomains: 68, MinSurfSeconds: 25,
			Campaigns: []CampaignWindow{
				{StartFrac: 0.20, EndFrac: 0.28, MalDensity: 0.65},
			},
		},
		{
			Name: "Traffic Monsoon", Host: "trafficmonsoon.sim", Kind: ManualSurf,
			URLsCrawled: 5047, SelfReferrals: 540, PopularReferrals: 549,
			RegularURLs: 3958, MaliciousURLs: 484,
			Domains: 466, MalwareDomains: 86, MinSurfSeconds: 30,
			Campaigns: []CampaignWindow{
				{StartFrac: 0.15, EndFrac: 0.22, MalDensity: 0.80},
				{StartFrac: 0.50, EndFrac: 0.56, MalDensity: 0.85},
				{StartFrac: 0.78, EndFrac: 0.83, MalDensity: 0.75},
			},
		},
	}
}
