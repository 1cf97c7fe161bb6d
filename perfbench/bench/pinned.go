package bench

// Pinned outcomes. Every value here is a deterministic result of the
// simulator at full size; a pass whose outcome differs fails its unit.

// pinnedThm317 holds S1, S2, S3, S4 and steps of Theorem 3.17 cycles 1
// and 2 at ε=1/5 with Lemma 3.3 validation.
var pinnedThm317 = [][5]int64{
	{4624, 3178, 28941, 9463, 238314},
	{9983, 6861, 61833, 20055, 511156},
}

// pinnedRandomWR holds, per seed, the verdict, peak backlog, final
// backlog and hops of the random-wr run. Other seeds are held to
// conservation and the stable verdict only.
var pinnedRandomWR = map[int64][4]int64{
	0:  {0, 32, 11, 4494921},
	1:  {0, 31, 19, 4495992},
	2:  {0, 32, 17, 4497376},
	3:  {0, 31, 14, 4496757},
	4:  {0, 33, 15, 4494906},
	5:  {0, 33, 18, 4496835},
	6:  {0, 32, 17, 4497360},
	7:  {0, 32, 17, 4496784},
	8:  {0, 33, 21, 4494218},
	9:  {0, 31, 20, 4493890},
	10: {0, 34, 17, 4495806},
	11: {0, 32, 21, 4494601},
	12: {0, 32, 14, 4497470},
	13: {0, 33, 19, 4496975},
	14: {0, 32, 20, 4498600},
	15: {0, 32, 20, 4498501},
	16: {0, 32, 16, 4496874},
	17: {0, 34, 20, 4494137},
	18: {0, 33, 18, 4494434},
	19: {0, 34, 16, 4495935},
	20: {0, 34, 20, 4495581},
}

// pinnedCorpus holds each scenario spec's pinned outcome.
var pinnedCorpus = map[string]corpusPin{
	"b2.json":         {Now: 1000, Injected: 3700, Absorbed: 3688, Dropped: 0, Queued: 12, Sends: 7782, LeapWindows: 0, MaxResidence: 245},
	"e1.json":         {Now: 21569, Injected: 60416, Absorbed: 59280, Dropped: 0, Queued: 1136, Sends: 244086, LeapWindows: 297, MaxResidence: 3286},
	"e13.json":        {Now: 1551, Injected: 8351, Absorbed: 6172, Dropped: 0, Queued: 2179, Sends: 23452, LeapWindows: 0, MaxResidence: 772},
	"e14.json":        {Now: 240, Injected: 60, Absorbed: 30, Dropped: 30, Queued: 0, Sends: 90, LeapWindows: 0, MaxResidence: 3},
	"e2.json":         {Now: 393, Injected: 2092, Absorbed: 1543, Dropped: 0, Queued: 549, Sends: 5886, LeapWindows: 0, MaxResidence: 193},
	"e3.json":         {Now: 393, Injected: 2077, Absorbed: 1539, Dropped: 0, Queued: 538, Sends: 2846, LeapWindows: 0, MaxResidence: 386},
	"e4.json":         {Now: 2192, Injected: 2533, Absorbed: 2190, Dropped: 0, Queued: 343, Sends: 3590, LeapWindows: 0, MaxResidence: 1000},
	"e5.json":         {Now: 1323, Injected: 4178, Absorbed: 3629, Dropped: 0, Queued: 549, Sends: 18909, LeapWindows: 0, MaxResidence: 597},
	"e7.json":         {Now: 2500, Injected: 6370, Absorbed: 6367, Dropped: 0, Queued: 3, Sends: 9123, LeapWindows: 0, MaxResidence: 4},
	"e8.json":         {Now: 2500, Injected: 8425, Absorbed: 8423, Dropped: 0, Queued: 2, Sends: 12422, LeapWindows: 0, MaxResidence: 6},
	"h1.json":         {Now: 392, Injected: 2092, Absorbed: 394, Dropped: 0, Queued: 1698, Sends: 6147, LeapWindows: 0, MaxResidence: 387},
	"quickstart.json": {Now: 600, Injected: 150, Absorbed: 150, Dropped: 0, Queued: 0, Sends: 450, LeapWindows: 12, MaxResidence: 3},
	"u1.json":         {Now: 5000, Injected: 16562, Absorbed: 16550, Dropped: 0, Queued: 12, Sends: 32131, LeapWindows: 0, MaxResidence: 12},
}

// pinnedRemark1Packets is the number of packets the recorded r=3/4, n=6
// cycle injects (seeds included).
const pinnedRemark1Packets = 60416
