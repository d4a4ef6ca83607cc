"""The stdout of every command pinned by its sha256 digest: a changed
row, value or order fails here.  The rows of `lgrnok valuations` and
`lgrnok delta --vrep` at n = 1..7, text and JSON; `lgrnok flows` at n = 3
(target 1,4,5) and n = 5 (target 1,2,4,6,8), text and JSON; `lgrnok
graph` at n = 1..6, text, JSON and dot; `lgrnok gamma --hrep` at
n = 1..8, text and JSON; and at n = 4 every other command and format:
`orientation`, `matrix`, `fold`, `volume`, `counts`, `verify --level all`,
`delta --hrep`, `delta --fvector` and `gamma --vrep`.  A key's command
names its flags, or takes the default ones below.
"""

import hashlib

import pytest

from lgrnok.cli import main

DIGESTS = {
    ("valuations", 1, "text"): "7504e0cf124c71455d15c06cd797cf3273173984a28421ec71ddeb01b2e85fb2",
    ("valuations", 1, "json"): "2297d551c387bf94484a02184a5b9a553fe95748e716dd996589cab8b9262df3",
    ("delta", 1, "text"): "0dea5f292769c4f7201da93c5d680730c0c7bfc0610d53d75a588a827c3b7716",
    ("delta", 1, "json"): "fbb09429a0393d249849af4ca636a3c3c65e8811531e31877e7fe4ed10737f06",
    ("valuations", 2, "text"): "ca148828209bee272b4bbcc227380f2b2cb55e3f4ac1431f4c8cda243de4a8bd",
    ("valuations", 2, "json"): "d69b2292e7f0d5305419731cd22d3557b113913dcce01d4d750f3df63cac60d9",
    ("delta", 2, "text"): "3e4fe933029d75ce087962e6acac6dd34c6fc8be40c7e1e1f50d1652ebb0861e",
    ("delta", 2, "json"): "a7d425407b037d4553e03d87d2e1ce221ff704506bbead966611263666b8e8b2",
    ("valuations", 3, "text"): "ca2fb2ba39ed27e20a0f4273cc260843a5d3a211852ac85c6dd85881e79ccac1",
    ("valuations", 3, "json"): "3a45f6b8dcb8dcfe8e6ab2a3bdc6d7efccee291599241498e3361a2196dd6d64",
    ("delta", 3, "text"): "2e528fd36a2eda7ccd307e9369b956621013ceb6ad06792f5f77f4d0a1957a26",
    ("delta", 3, "json"): "46183d1d5d266ceeba62b6509ad287b329acd7cc0e9846197350a9a94404d820",
    ("valuations", 4, "text"): "ac88d74ba28dcaf1ce3e4ed2d613b8b0ccfe7220642662124aceb1ad548e7a26",
    ("valuations", 4, "json"): "a9f9ff12da3ef76ade50be2584eebf71e7893bb042c5cb060e55149aebe6acde",
    ("delta", 4, "text"): "dee1647ded1a1b7eadd1771577423e746e264fc06e5026dd347302351adf4753",
    ("delta", 4, "json"): "17c996e01ea9b63d120bbf70f21f5750ea8138023f3e82ee2398578d553afab0",
    ("valuations", 5, "text"): "67ba9fc6baffc57c32d9b5a639abd69c92d82173e6e752acd94881201fb5517b",
    ("valuations", 5, "json"): "0cbc3289b948d209249b788145bffe78416e022364f457ce8a456c9b208b5335",
    ("delta", 5, "text"): "d2d16ef2cce65010fe48a23855d3daaba89aa19016d923f135426737709aa5c4",
    ("delta", 5, "json"): "94dddf1d002bbcf961e0b0d3956da1450950bba4cead0555f12696163f57efa2",
    ("valuations", 6, "text"): "765d9af3cea661711ee719f0a53c6d82fc62074267363b5567e4b3f7948f3ce9",
    ("valuations", 6, "json"): "2f20a022958a31d6bcda8ef874d1e169de82fab8cc8bfe44500f584c80fd63eb",
    ("delta", 6, "text"): "c6801bcd4e7a7f57828161d33e0d974b1b22dada6e77895e099dd61c13795c4d",
    ("delta", 6, "json"): "c66f8c632abef26833b6d9a30136f3634dd1a3a066a3c9edfdbfd4fbc36bf399",
    ("valuations", 7, "text"): "df44818ed7c09e5f2c06d1512fc44aef53cc2955266aa2cc9dd8cd40bbe6522e",
    ("valuations", 7, "json"): "2f86aaf641dda4b4dfe98b115acf20bc46fa15e5f85e952ec32a7bc256b3dc2b",
    ("delta", 7, "text"): "144f4f8e1a85ae07c74e8d98d58e675ada2bcf85b08da4660e9c26ed6efc866a",
    ("delta", 7, "json"): "d0440815e5876eb656df750196f969459b1c16ef05ebd624328fe4eb6c3c4238",
    ("flows", 3, "text"): "c6881ae726e5c158ac95eb4e63dfa0b3a5800a901faac324ab64e3f54cbc10ef",
    ("flows", 3, "json"): "53660737d75d26bab5b30b2f9a792a4d875cf7ec013cb6d37df2d95789c88aaa",
    ("flows", 5, "text"): "601dc82f50602e162cfd813a9128fae58c5174084ca53eae93a086a3570583d1",
    ("flows", 5, "json"): "ca52ed9bec43e94c6980348de07894ed6c06df0dace79953050d6c21f5e7b1ea",
    ("graph", 1, "text"): "32981a05dc20e9ca511eff9c4ef6be3ed2df4df72c57e23e7e90515bcb609e73",
    ("graph", 1, "json"): "7f01d6dd14dc605c7cbb7ba01d335890b02aa31d6971fdd9b2ad663dd8c5e7c5",
    ("graph", 1, "dot"): "a79e573fbc9041140b6c5cb5f84eabef3421cc9754c75c0d2602b8f88c90ad64",
    ("graph", 2, "text"): "70383f5518edc229a9f2e4dc6d444a581f6f27a3cc86cd5ba5a6b9b5dafac4fc",
    ("graph", 2, "json"): "30630fb6fe408ce4ee93098c207d8abf98ae928cc1f263024f97e3b2b4d0f04f",
    ("graph", 2, "dot"): "3bfb21e3722358aa853f2054cfa8d0d275dfe075e1d8bb2dda4ecde2cefc4193",
    ("graph", 3, "text"): "0cddd370a70834f8b052a8a9f595c78155b703ce228cb41fc038301ccf0071de",
    ("graph", 3, "json"): "0fdededdbba206735269e769dc38f7198dfd2601ebc091eee6d025b270831437",
    ("graph", 3, "dot"): "0fbaba4f2f6c12dea3418c20c892930e2dd06bfc2c2fbf036c6bee32235468f0",
    ("graph", 4, "text"): "e3042350f8cf848351104cf793ce83dd01b67386e27fa95c2c60f894b234f0ab",
    ("graph", 4, "json"): "15c9efc53a869a8b6914850c37e837aadf5ae93e11bddf8362f0b52a62109897",
    ("graph", 4, "dot"): "90b6531c2375ad5412e11ad9b70cde94f790415cb8355de1d44a1ec1a7c8f307",
    ("graph", 5, "text"): "7248c18aabcca3d5ed0a47a680e8c2f7f1b79efe3a8a068e21e121a8796a5676",
    ("graph", 5, "json"): "c9988f3948070b7109e4ce795bbe1a0f2d843be6ce7bd5dfd01bba43d9e59bb6",
    ("graph", 5, "dot"): "51a1ce9e949ca74c8c3624fc45aba78c9414ad873a942f785fc1cdb6e1aca8e2",
    ("graph", 6, "text"): "400d57f1a87390ce60de33b1a62bb169566310bc203325e7657d77a0161f7070",
    ("graph", 6, "json"): "bff33cf1c551e7a61afe54500dac05339ba2e1976a66c26bdbfc26bb7c4dfd0c",
    ("graph", 6, "dot"): "2a7c4e15bdfa5925649a13f6bce4fa0c1d5e178f21ba9556feb0d2b353e25f91",
    ("gamma", 1, "text"): "90c36b487bc3edb4bcd1104428f8523208c4e9a49851234eb55c13a5d3f78eac",
    ("gamma", 1, "json"): "1b211f01fef4c5bf8bfd7fa29f6b89662d7bc8fa7c16c94b85c80139bb0f2145",
    ("gamma", 2, "text"): "680536abad627ec29a59f974d28c876274a1eea7b1775f123f41c5be8b5945de",
    ("gamma", 2, "json"): "906cb5c5017dcd9d704c7cc9f4cc76b62a70840c9a6268b20fafc63aa940f07b",
    ("gamma", 3, "text"): "0ce61b0f28d3d4387f8fbcb6405bc4861db6de2579a056359dec32bd2be150b5",
    ("gamma", 3, "json"): "afe4fac30be5c8b4ab454b25ea89d03f215606d0f2eaf295777a00697b7a47bc",
    ("gamma", 4, "text"): "9f4f7283b0d2abcc3d5d042cadd3e335839e26fa6f2d06fc40be4630d4576d5c",
    ("gamma", 4, "json"): "1da6b62db2a2797cc104719ac0626f8a1dde0a6c8764c33a578b2d4f685154c3",
    ("gamma", 5, "text"): "7407d52b2a68645c5edc91a3c1afa3cd6848d57e04dfecc5dd151cc150a7d988",
    ("gamma", 5, "json"): "cab7516f38c75b2a7a564a000f00379f0537fab2ae322cf7440227e10a2a1e3b",
    ("gamma", 6, "text"): "941152f8f74fa5f58ba77c257742673d6ab7d96e2c65433406a5c2b4e11810a1",
    ("gamma", 6, "json"): "05f7af459bfceaee91dfb5d093fde81235b7f0d7edba6cf1f6818ea1abf4e13a",
    ("gamma", 7, "text"): "ec7c190708e893c3faff6f23d9cf1575a1587b67805c5ce8922c98189e1fa176",
    ("gamma", 7, "json"): "3d3a227f06d03edf925f8effe57aac65a73b123c8b0fbc39f814fe4fef723994",
    ("gamma", 8, "text"): "4e41b467842e2d08d494a574956daabd0722250860ff53618e6eeb43182d3586",
    ("gamma", 8, "json"): "bbf9c28064d1bf11824164a6ff15ffda22130e4eba29f95363f81f8f42d81371",
    ("orientation", 4, "text"): "20432417e76f5c1efd0bb447ec8a74cf616594505e8c5eff5f4228d076e55fc8",
    ("orientation", 4, "json"): "aca8beb37f539b3307c243a540f033f7d6004b5b2ad186f3f70842945f9d5ee4",
    ("orientation", 4, "dot"): "c39fe1591bb3a7b9a60023d8938656cf9385c6f379d5b399d24fec0ddf0bf896",
    ("matrix", 4, "text"): "9a09d17508d95e6bdcce523cd9907541a55e73c431835e53360b2ec85dfeed4e",
    ("matrix", 4, "json"): "7cddac4190309767995c17a768451918f03244831d3557b2e58720ffee2537ba",
    ("fold", 4, "text"): "322a90fb406b99eacc294597ac7a387cea027000d6d42a0f5b74106050f4cd51",
    ("fold", 4, "json"): "5a760074839bdeab16b69170315dd0ff6d108ab4c0b5e4c966a4e5401ebd5efe",
    ("fold", 4, "dot"): "c5d216cf2cf878b4bef1de1c9d198070951d287a20aee825024dbc01f114276a",
    ("volume", 4, "text"): "65ee01dafce03b5a6c51c622c833c6a1fd704b22ba8e30bba8f9356a6ce553be",
    ("volume", 4, "json"): "745f4c06fd9de2fe7c270fd59d9665e10d3e3c7d87840296df2aaa710c5068cc",
    ("counts", 4, "text"): "7f0f2f76738c72d673544461221c630b616975060c3d8ee08b411d78c8397075",
    ("counts", 4, "json"): "bc2506ff634cf5a0ca160069622c0375afbabe404e21c3719b13f05f02aaab55",
    ("verify --level all", 4, "text"): "712c7860442a4adbc32b566fef2b2c08f4820f91bc4141ea44726fe533ef9bd2",
    ("verify --level all", 4, "json"): "9ee4e419d528a257eb128f1b1d8d909ada13cbf44355da5f0652e3256595aaa2",
    ("delta --hrep", 4, "text"): "dbceba69b695989241283890de4d907b872d6a987add58599429eede696f6ac8",
    ("delta --hrep", 4, "json"): "e51e045a8465b06211a83a657b052edcb85170d9cf02cf11a6a7ae2ace11c63d",
    ("delta --fvector", 4, "text"): "75097868532c442cffe1472361c0fa6af0ff844e93c47257dd66925815e9d8d6",
    ("delta --fvector", 4, "json"): "8711f4ac26c83a389a951f2cafa18dc747d7203b403abc65981cbe30103dc40e",
    ("gamma --vrep", 4, "text"): "6f7d0d86be4cb1aeb89d78a13597baae63c4910adc867ab8847110cd382145a6",
    ("gamma --vrep", 4, "json"): "19982088974f3d4a4eee6d1f731f543bfa8bbf396a2fc4f5b2d4b95730fbd500",
}

FLOW_TARGETS = {3: "1,4,5", 5: "1,2,4,6,8"}


@pytest.mark.parametrize("command, n, fmt", list(DIGESTS))
def test_output_is_pinned(capsys, command, n, fmt):
    name, *extra = command.split()
    if name == "flows":
        extra = ["--target", FLOW_TARGETS[n]]
    elif not extra:
        extra = {"delta": ["--vrep"], "gamma": ["--hrep"]}.get(name, [])
    assert main([name, "--n", str(n), "--format", fmt, *extra]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command, n, fmt]
