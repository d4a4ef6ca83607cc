"""The rows of `lgrnok valuations` and `lgrnok delta --vrep` at n = 1..7,
pinned by the sha256 digest of each command's stdout, text and JSON: a
changed row, value or order fails here.
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
}


@pytest.mark.parametrize("command, n, fmt", list(DIGESTS))
def test_output_is_pinned(capsys, command, n, fmt):
    vrep = ["--vrep"] if command == "delta" else []
    assert main([command, "--n", str(n), "--format", fmt, *vrep]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command, n, fmt]
