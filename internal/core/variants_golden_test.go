package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/ftl"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestTPFTLVariantsGolden pins every ablation variant of TPFTL — the 16
// monograms of VariantName, each under HotnessLRU and HotnessAvg — to the last
// counter on three traces: per case, the FNV-64a of the rendered device
// Metrics (a flat value, so the rendering is deterministic) and the
// scheduler's EventHash, which folds every flash operation in issue order.
//
//   - sweep: 8-page sequential reads that start 3 pages into the device, so
//     one request in 128 straddles a translation-page boundary, and wrap
//     around it twice. The 512-byte budget is full after a few requests; from
//     then on every miss evicts, and under request prefetch every miss
//     installs and evicts a run of entries.
//   - fin1: 6 000 requests of the Financial1 profile: dirty victims, batch
//     update, clean-first skipping dirty entries, and garbage collection.
//   - phases: 48 random one-page reads and writes, then 12 sequential 8-page
//     reads, over and over, on a 4 MiB device of 1 KiB pages (256 entries a
//     translation page, 16 translation pages). The random phase fills the cache with small TP
//     nodes; the sequential phase drops them, which switches selective
//     prefetching on, and rule 2 caps its prefetches at the coldest node.
//
// The cache's replacement and install order decides every later translation
// read and write, so a change to either moves these hashes. Regenerate them
// only for an intended behaviour change, and say so in the commit.
func TestTPFTLVariantsGolden(t *testing.T) {
	const pages = 16 << 20 / 4096 // deviceConfig's logical pages
	var sweep []trace.Request
	for i := int64(0); i < 1_200; i++ {
		sweep = append(sweep, rdSpan(i, (3+8*i)%(pages-8), 8))
	}
	fin1, err := workload.Generate(workload.Financial1().Scale(16<<20), 6_000, 13)
	if err != nil {
		t.Fatal(err)
	}
	const kib, smallPages = 1024, 4 << 20 / 1024
	var phases []trace.Request
	rng := rand.New(rand.NewSource(5))
	for arrival, cursor := int64(0), int64(0); len(phases) < 2_400; {
		for i := 0; i < 48; i++ {
			op := trace.OpRead
			if rng.Intn(2) == 0 {
				op = trace.OpWrite
			}
			phases = append(phases, trace.Request{Arrival: arrival, Offset: rng.Int63n(smallPages) * kib, Length: kib, Op: op})
			arrival++
		}
		for i := 0; i < 12; i++ {
			phases = append(phases, trace.Request{Arrival: arrival, Offset: cursor * kib, Length: 8 * kib, Op: trace.OpRead})
			cursor = (cursor + 8) % (smallPages - 8)
			arrival++
		}
	}

	type pin struct{ metrics, events uint64 }
	golden := map[string]pin{
		"sweep/–/lru":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/c/lru":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/b/lru":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/bc/lru":    {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/s/lru":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/sc/lru":    {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/sb/lru":    {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/sbc/lru":   {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/r/lru":     {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rc/lru":    {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rb/lru":    {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rbc/lru":   {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rs/lru":    {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rsc/lru":   {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rsb/lru":   {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rsbc/lru":  {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/–/avg":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/c/avg":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/b/avg":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/bc/avg":    {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/s/avg":     {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/sc/avg":    {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/sb/avg":    {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/sbc/avg":   {0x79f090bb69d6322a, 0xa49b90e955b0af41},
		"sweep/r/avg":     {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rc/avg":    {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rb/avg":    {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rbc/avg":   {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rs/avg":    {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rsc/avg":   {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rsb/avg":   {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"sweep/rsbc/avg":  {0xe2aa569e05db4853, 0x23776eea5cd3514e},
		"fin1/–/lru":      {0x72917464b6cdda88, 0xef783c4cbbee8a4f},
		"fin1/c/lru":      {0x5ffc9592c19f4360, 0xb5a2e97ab5604312},
		"fin1/b/lru":      {0x74daf28077a5180d, 0x6f332e767cb67a2f},
		"fin1/bc/lru":     {0x5cd61d525bf4f884, 0xf470c81fcb818423},
		"fin1/s/lru":      {0x72917464b6cdda88, 0xef783c4cbbee8a4f},
		"fin1/sc/lru":     {0x5ffc9592c19f4360, 0xb5a2e97ab5604312},
		"fin1/sb/lru":     {0x74daf28077a5180d, 0x6f332e767cb67a2f},
		"fin1/sbc/lru":    {0x5cd61d525bf4f884, 0xf470c81fcb818423},
		"fin1/r/lru":      {0xfe516106e29a67be, 0x2b973e477042021},
		"fin1/rc/lru":     {0x87dfa90bff828692, 0x7ab2774e5379cebd},
		"fin1/rb/lru":     {0xa935d78723e34a10, 0x6c59a9d203ce03a1},
		"fin1/rbc/lru":    {0x8ebfef596e313640, 0xddb4fa49fc0bffd2},
		"fin1/rs/lru":     {0xfe516106e29a67be, 0x2b973e477042021},
		"fin1/rsc/lru":    {0x87dfa90bff828692, 0x7ab2774e5379cebd},
		"fin1/rsb/lru":    {0xa935d78723e34a10, 0x6c59a9d203ce03a1},
		"fin1/rsbc/lru":   {0x8ebfef596e313640, 0xddb4fa49fc0bffd2},
		"fin1/–/avg":      {0xca72db913697b226, 0x75f9c4f17564e411},
		"fin1/c/avg":      {0xcad013682dda0160, 0x365622f20d1aca3d},
		"fin1/b/avg":      {0x9b04d2de1984c929, 0x44341dcabd20ce80},
		"fin1/bc/avg":     {0xc30f273362dc7a46, 0xe3e2ff1152f4ea83},
		"fin1/s/avg":      {0xca72db913697b226, 0x75f9c4f17564e411},
		"fin1/sc/avg":     {0xcad013682dda0160, 0x365622f20d1aca3d},
		"fin1/sb/avg":     {0x9b04d2de1984c929, 0x44341dcabd20ce80},
		"fin1/sbc/avg":    {0xc30f273362dc7a46, 0xe3e2ff1152f4ea83},
		"fin1/r/avg":      {0x6745be1ade5c0e54, 0xade18ba43bba1c79},
		"fin1/rc/avg":     {0xcca80b99879962c4, 0x721b6fb848392c0f},
		"fin1/rb/avg":     {0x6407f99e4204b88f, 0xcc9160271e9e0a90},
		"fin1/rbc/avg":    {0xabbae327d962851d, 0x619469aaeda5fcb},
		"fin1/rs/avg":     {0x6745be1ade5c0e54, 0xade18ba43bba1c79},
		"fin1/rsc/avg":    {0xcca80b99879962c4, 0x721b6fb848392c0f},
		"fin1/rsb/avg":    {0x6407f99e4204b88f, 0xcc9160271e9e0a90},
		"fin1/rsbc/avg":   {0xabbae327d962851d, 0x619469aaeda5fcb},
		"phases/–/lru":    {0x1cd49a371c7224c, 0xe9d6d7c5f2c9cd88},
		"phases/c/lru":    {0x11cb2545cc7b4749, 0x8c99a73b21b94068},
		"phases/b/lru":    {0x457ce3da63d30651, 0xd9825d8cb7786302},
		"phases/bc/lru":   {0x625a26ec419c7542, 0x8f19a81c3c06d7c9},
		"phases/s/lru":    {0xb75252f9e1ac145d, 0x5af4de26c2dddebb},
		"phases/sc/lru":   {0xc88769fad98733f0, 0xd0068965a4a1262},
		"phases/sb/lru":   {0xfa07362ed7a5fab3, 0xb6ffff386514c8c2},
		"phases/sbc/lru":  {0x7d9fd711cfd5374b, 0xad48bfc6d6713c3b},
		"phases/r/lru":    {0x758dcb96ca4e7414, 0x5928cac4e247c842},
		"phases/rc/lru":   {0x631d040981d302a3, 0xdd8600ce87d4f415},
		"phases/rb/lru":   {0xea9f07016387c21, 0x644d10cd09b6d847},
		"phases/rbc/lru":  {0xd77b4dc274f5f12a, 0xe0065be1424dbf88},
		"phases/rs/lru":   {0xd58d5de71b722da9, 0xf56aabeee8d8ffc9},
		"phases/rsc/lru":  {0x95360605676e6742, 0x51f43ef412e053e6},
		"phases/rsb/lru":  {0x9f31b6ea7d18c60f, 0x1b9a24a5edb8d6e7},
		"phases/rsbc/lru": {0x160ae42854e4f099, 0x59a3658b9669a105},
		"phases/–/avg":    {0xf213971ee6c5996, 0x93b3171e71dc4328},
		"phases/c/avg":    {0xafdff85c57d50329, 0x3c899f708daf2dd9},
		"phases/b/avg":    {0xc382b3f7e603bc83, 0x45a7220f307f1e44},
		"phases/bc/avg":   {0xe1e5327c4122f767, 0xe475c79f020e3e29},
		"phases/s/avg":    {0x1b0b4bd26f9a58aa, 0x68579898f4517ab5},
		"phases/sc/avg":   {0x591cba8aa4c25e65, 0x78f5e41d5331cd79},
		"phases/sb/avg":   {0x12e6b10ab374b8ea, 0xc3e79d75212a7faf},
		"phases/sbc/avg":  {0x7eae79c03e4d53bb, 0x55831bd6dd669919},
		"phases/r/avg":    {0xea969854c55df46a, 0xefa868caf9e30530},
		"phases/rc/avg":   {0x431e10ef45bcd416, 0xdba7058ae1e4286a},
		"phases/rb/avg":   {0x6611d3541cfe5fa0, 0x7f82c7100e047ebd},
		"phases/rbc/avg":  {0x19527a39206e8082, 0xea28d55bbe7325f5},
		"phases/rs/avg":   {0xd4294d80d30beb96, 0xeab1afec87fe78cc},
		"phases/rsc/avg":  {0x5c71f9fceb7991df, 0x3eb275310fb12e38},
		"phases/rsb/avg":  {0x9d5cde37e4ef3ec5, 0xa891690503f2e3f2},
		"phases/rsbc/avg": {0x2eab0409e2ee8ef9, 0x71e994774f531448},
	}
	for _, tc := range []struct {
		name     string
		reqs     []trace.Request
		cache    int64
		space    int64
		pageSize int
	}{{"sweep", sweep, 512, 16 << 20, 4096}, {"fin1", fin1, 2048, 16 << 20, 4096}, {"phases", phases, 512, 4 << 20, kib}} {
		for _, hot := range []struct {
			name string
			h    Hotness
		}{{"lru", HotnessLRU}, {"avg", HotnessAvg}} {
			for mask := 0; mask < 16; mask++ {
				cfg := Config{
					CacheBytes:        tc.cache,
					RequestPrefetch:   mask&8 != 0,
					SelectivePrefetch: mask&4 != 0,
					BatchUpdate:       mask&2 != 0,
					CleanFirst:        mask&1 != 0,
					CompressEntries:   true,
					Hotness:           hot.h,
				}
				key := tc.name + "/" + cfg.VariantName() + "/" + hot.name
				tr := New(cfg)
				dcfg := deviceConfig(tc.cache)
				dcfg.LogicalBytes, dcfg.PageSize = tc.space, tc.pageSize
				d, err := ftl.NewDevice(dcfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Format(); err != nil {
					t.Fatal(err)
				}
				for i, r := range tc.reqs {
					if _, err := d.Serve(r); err != nil {
						t.Fatalf("%s: request %d: %v", key, i, err)
					}
				}
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if err := d.CheckConsistency(tr.DirtyCached()); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				h := fnv.New64a()
				fmt.Fprintf(h, "%+v", d.Metrics())
				got := pin{h.Sum64(), d.Scheduler().EventHash()}
				if want := golden[key]; got != want {
					t.Errorf("%q: {%#x, %#x}, want {%#x, %#x}", key, got.metrics, got.events, want.metrics, want.events)
				}
			}
		}
	}
}
