package exact

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dfggen"
	"repro/internal/ir"
	"repro/internal/latency"
)

// randomGoldenPoints are the (MaxIn, MaxOut, NISE) points every random
// golden case is searched at.
var randomGoldenPoints = [][3]int{{4, 2, 4}, {2, 1, 3}, {3, 1, 2}, {4, 2, 1}}

// randomGoldenBlocks returns the n dfggen blocks of the random golden: 8 to
// 22 nodes over 6 external inputs, drawn in sequence from one seed.
func randomGoldenBlocks(n int) []*ir.Block {
	p := dfggen.DefaultParams()
	p.MinNodes, p.MaxNodes, p.MaxInputs = 8, 22, 6
	rng := dfggen.Seeded(20261018)
	blks := make([]*ir.Block, n)
	for i := range blks {
		blks[i] = dfggen.Block(rng, p)
	}
	return blks
}

// cutsString renders a joint answer as its cut node sets in result order.
func cutsString(cuts []*core.Cut) string {
	var s []string
	for _, c := range cuts {
		s = append(s, c.Nodes.String())
	}
	return strings.Join(s, " ")
}

// jointRandomHashes pins, per random golden block, the FNV-64a hash of its
// cut node sets at the four randomGoldenPoints. Recorded from the joint
// search bounded only by cur + suffixSW[i], before the slot-wise bound.
var jointRandomHashes = []uint64{
	0x073dfce358f85035, 0xaa6e5470fe8942ed, 0x326c918b20be3118, 0xc350941312ecd5df,
	0xfecd2871bb0c3fb9, 0x76096431fe34fced, 0x1695575f601fb0fd, 0x22f8a0a88a3d5500,
	0xd67fda28423e3da5, 0x8dcddc91f4f12178, 0x0c6d13d44cf2a70d, 0x991b70c98801e2b1,
	0x337d6ca94a9c1f93, 0x3465489e60c788b8, 0x0b22abd943254814, 0x92ffa90e9ee7694c,
	0xd15bf05ec1895fa3, 0x42bdd182132dcc30, 0x3d53b693be5ef074, 0xacd98a243043b09e,
	0x6b499a8f3c15a5f3, 0x0b6c973ed9472bf3, 0xb5d4a74a10c29c9d, 0x68a621ec06cd3448,
	0xd7dda2ea5e91cb5a, 0xa3c3d896689d76b7, 0x295ce2ee8425af31, 0xd9a486d367681984,
	0xb8507ab928cda19b, 0x75dda480306d4873, 0x7f0803429b286ce4, 0x33b91c84831a2ddc,
	0x21e303f5a1118d91, 0x041ddd62fadaff63, 0xadfc18161c8eb996, 0x63c59df2cf43c738,
	0xdeffeca1249f482a, 0x8ac491ef6cf9a73a, 0x75a47e391d6f6424, 0x775e8ef92e013733,
	0x6d6c461b2226cadf, 0xc52a2e9f4d2da58e, 0x3a58076672cd3b4d, 0xb039aa80028d303c,
	0x4827068a20fc80c4, 0x19232c6d2cedcd50, 0x171db5164a384ed3, 0xaf4b7845072f876b,
	0x814c894776f2e07e, 0xaf0c6a44c42729fe, 0xf4cea771567adb94, 0x2747d882ed5cea05,
	0xa127fadca98ad281, 0x69b45eeefa6da4c8, 0xbd34200bedd55404, 0x4761fef03ef40c40,
	0x3dddfab5c1947595, 0x10b774f635fa7e5c, 0x6f59202814fca169, 0x4386bf64777c9337,
	0x73707d1cbe5698ad, 0x646e6b238613dffd, 0xd71cc952bd02bcad, 0x22718b7351fc0d50,
	0x2898d1bbd92b91fc, 0xb51521d0f91064ad, 0x281d202c0a7b4808, 0x91c70c36ea33307b,
	0x0fe344a70e1711f7, 0x5ac30a59b80abeb1, 0xa3ad65425bc92ae1, 0xa51789f12ecadc6f,
	0xbd8bc34a97e1cc01, 0x51edfa610a9560de, 0x44ffa665cc6547a7, 0x238640fb3abb2ed4,
	0xb41d53be75809106, 0x20400554c2e5a852, 0x5590c43f7ff7637b, 0x013c29ad1260db02,
	0xf0ae376be9f0cbf1, 0xc485c8e134270537, 0x2bf9278b75e7d1c5, 0xf0b252d28f88b74a,
	0xfce8def2ab03e5fc, 0x124203455556d086, 0xf19cd17bdf97b5f9, 0x0db0733690cd40a2,
	0x566b65815bc2689e, 0x8150aab03671ead3, 0xfd1856d508f0c916, 0x15ee1f4399774fc2,
	0x59d331abb5966634, 0x3d5049557b212bfb, 0xff709dc33dedcf0c, 0xa2845f27d6f4a11d,
	0xea6acd472dcb5ea9, 0x7daf8f68905c45be, 0xe7693e4bf099020e, 0xeca20808e51a4b98,
	0x0734d48629fc522a, 0x4dc38e25bb399a5d, 0x7598c5cf3694466f, 0x68e8d89c1f47cda1,
	0x90bcabbdc1688af1, 0x773a22d6b303fd11, 0xa453e0ee06f1d5eb, 0x001049e5cfc78aba,
	0x48814c5ae4de3905, 0x6e8ae7d487b999ff, 0x1be93ece53f9b3ce, 0x81ccaa36f82b3842,
	0x19acc9f32e357266, 0x654b0bf77b4d4e7f, 0xfeb36c3d15f005f0, 0x3cbd90563bb9afa7,
	0xf0d3c9c097f4f522, 0x57ea7dfe1e1680fd, 0xac507727e555a62e, 0x5bc574f49623cd1f,
	0x271ff72081314a27, 0x7b7e394f952131e6, 0x90da9c0e7bad0987, 0x96c091b58bf5616b,
	0xd6944c031d444b04, 0x4ccc352cc1eae1f1, 0xa99fe8020a6577b0, 0x4405dd00f6517e39,
	0x432516929621eecc, 0x4d9c096f2aaa147a, 0x5cc8f7f8ee9bc551, 0xbf2efcb79be93aef,
	0x2b94515f23f2d6b2, 0x2a5b0f54b84c5b12, 0x56c7f213026ba828, 0x4f72db815b5b442d,
	0x55ef5c65cc4b7872, 0xf6ea76c802b2a9d5, 0x98d55fb4e478dc52, 0x4b537fa66a163188,
	0x79016727ab2e8c69, 0xbb9fd7ce81946df1, 0xa12b8a9d8f49b39e, 0xc9d8294e2fc3a88b,
	0x1f27c8d9479902ef, 0x55f333105e948281, 0x06c67164064f7b07, 0x323904e1a400bc99,
	0xc9e459dc5e88f423, 0x7d03d4d4114e095a, 0x1e901edd73dd9f4a, 0x8deacd76590937b9,
	0x1040eab3f9d284aa, 0x990d4e9e64533684, 0x5fca23f84bbc152b, 0x3fccf84617ef9910,
	0x1bd767c11b5f380d, 0xbd468f465b4f5df1, 0xe3d750f310818021, 0xde8862f8da286086,
	0x52093c7c3b7e22d8, 0xfe964715b2713748, 0x06de50fa933b62ed, 0xd1e86f93c291d249,
	0x84b9583aa128185a, 0x18935ac64665b109, 0x631362a7083bfdb0, 0xc971e796de75a856,
	0x38d1e6362d29b18b, 0xef2ed5a5deff2dba, 0xd7ff9aee6925ce8b, 0xbf772dd8d9011f14,
	0x3cc6f93cd6a033c2, 0x7ec0f3e3b2c89ab7, 0x9eaa6b726c74b85c, 0x3746359711f33845,
	0x0dfdde3efa4908d1, 0x9b73c2f13b903123, 0x4e7c0a95bead582a, 0xdb00be0af2013e0f,
	0x32eff8879365ee42, 0xa021c589017d4a76, 0x929d3d1b117e6461, 0x18ccaea69787a7d3,
	0x814d8cc793b7c50a, 0xdfa5600df80d5a2f, 0x87eb66de213f3b77, 0x4a1828453116c104,
	0x310973a4fa4def2a, 0x43db53feea9c1293, 0x0fc757fa44ce0eb0, 0x420548040be38d09,
	0x2a665bab2cb1bbbe, 0x5b5f43d789351e0e, 0xdf902ddb62c181af, 0xda87efcef8ddf46e,
	0x5ddeac028c8009b6, 0x96b4db7b12de4c13, 0x4d7d71208172c526, 0xb46bcb418afbb5a7,
	0x065fd76b188e3774, 0x6a54c94f4a71005a, 0xde4a3e1bdc5486e9, 0x60424065843d8380,
	0xecdbb7d4d720c874, 0x2465d407b1d2c997, 0x7b3a760b3f0d93f5, 0xab48a7d0853e9797,
	0x0f4fe363c9d00ce0, 0x7980bae08114f14f, 0x38455de74657270f, 0x5cc4affd44aca271,
	0xb901360fcbb25aaa, 0xaeb7fb5b44861795, 0x5aba1883616e36b3, 0x3a1381c823fc5bee,
	0xa5e77047bde73215, 0x32d226be78744f67, 0xb16747607cdd4550, 0x9fe9c8d83b19a9f9,
	0x02d62b06ea96733a, 0x0c613567736c2dd8, 0x1c548b575828c534, 0xc8cb29b13814edae,
	0xb46cde03edfca280, 0x370c1b75b606f4bd, 0xee64bef7ddc00b01, 0x0ef8a55cee317df1,
	0x3c7072a47a4f147b, 0x9156f547df2aab80, 0x32e645425db2d0eb, 0xfc21042c471f3cf2,
	0xb7aac8b10135b6d0, 0xbc665bde28a6f825, 0x4b80a0bc7527015b, 0x94309fa39a0bd49a,
	0xbdea0d701435ab86, 0xee1cf29293393016, 0xdd3447a4e124b628, 0x2158da73e43dbae5,
	0x9aae6f04bc05f6c6, 0xf804784af9452f04, 0xa3e0adf2c37a8f60, 0x1a4e7d283b864e7a,
	0x96498cf0ae9dd7cd, 0x0e574548c09e011e, 0xf17d1b523311402a, 0x35d2a9ba57f312ac,
	0x2546ca3cdb3cc84c, 0x4362db94ac37a28d, 0xa43cdefca450cce6, 0x82f59f59af022405,
	0x9f04e4978765a909, 0xdb8a0f848c2f7003, 0x5fb08e90b59fabdc, 0xe731fbfbdd779105,
	0x8c3843adf1c98bdb, 0x2d7de9f49beb1f71, 0x0931c8e58a33f935, 0x6fcecbee4a095c8b,
	0x1d5bceb396079288, 0x0adbb2329c7f4ab9, 0x0476e9288efd71ce, 0x537c46b03f7077e0,
	0xb03434a248a7f830, 0x4014b26998321d0b, 0x6fbf3f4ccb6f93a1, 0x4a4a83c0f1c990dc,
	0xc45fee4e8f3ac82b, 0x8548050e292937af, 0x7c75923629e58efb, 0xf1ccd7a58c17d313,
	0xa8307bc58f0c0330, 0xa0a5516c7bbd8929, 0xde41dfcac83419d4, 0x9915aed001aa563d,
	0x5e503eecdaaa4b9d, 0x3e79d36a84b7a494, 0x92090da554f5e8d2, 0x65d1b0c6016a1269,
	0x536d5f9b1a4132e1, 0x7f0ba2f20d918406, 0x6b5c8fe71031642e, 0xe28b2b05481216a9,
	0xd07ecb85cfec986f, 0x060a395d4e52b277, 0x5e9eee5ef28002f7, 0xacdb4b1c8e8b316e,
	0xd7bfebecb0659638, 0x865164f18fda171f, 0x9968b5634548ed12, 0x3743b8cbd90be7ed,
	0xd52ebc00fbb57916, 0xfdfbbc9990443359, 0xae8f32f98243e534, 0xc83b1bb9f21bc388,
	0x1dfe740fd97a44a5, 0x067166de5f6e4daa, 0xeab01e259b90a8a7, 0x59a253e13697b52d,
}

// TestJointRandomGolden pins the joint search's cuts on random dfggen
// blocks at four constraint points, and checks that the subtree-parallel
// path (Workers: 3) returns the same cuts. Any change to the bound, the
// DFS order, the symmetry breaking or the prune rules that moves a
// winning cut fails here. -short runs a prefix of the cases.
func TestJointRandomGolden(t *testing.T) {
	blks := randomGoldenBlocks(len(jointRandomHashes))
	if testing.Short() {
		blks = blks[:60]
	}
	for bi, blk := range blks {
		h := fnv.New64a()
		for _, pt := range randomGoldenPoints {
			opt := Options{MaxIn: pt[0], MaxOut: pt[1], Model: latency.Default()}
			seq, err := MultiCutContext(context.Background(), blk, opt, pt[2])
			if err != nil {
				t.Fatalf("case %d (%d nodes) %v: %v", bi, blk.N(), pt, err)
			}
			fmt.Fprintf(h, "%v:%s;", pt, cutsString(seq))
			opt.Workers = 3
			par, err := MultiCutContext(context.Background(), blk, opt, pt[2])
			if err != nil {
				t.Fatalf("case %d %v workers 3: %v", bi, pt, err)
			}
			sameCuts(t, fmt.Sprintf("case %d %v workers 3", bi, pt), seq, par)
		}
		if h.Sum64() != jointRandomHashes[bi] {
			t.Errorf("case %d (%d nodes): cut hash %#016x, want %#016x", bi, blk.N(), h.Sum64(), jointRandomHashes[bi])
		}
	}
}
