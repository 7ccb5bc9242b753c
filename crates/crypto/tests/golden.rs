//! Golden bytes: one Schnorr signature and one deterministic ElGamal
//! ciphertext per builtin group, pinned as hex. Both are pure functions of
//! their seeds, so any change to the arithmetic underneath (reduction,
//! exponentiation, encoding) that alters a single output byte fails here.
//!
//! The constants were recorded before the modular-reduction engines were
//! merged into one; regenerate them only for a deliberate format change.

use tdt_crypto::elgamal::DecryptionKey;
use tdt_crypto::group::Group;
use tdt_crypto::hex_encode;
use tdt_crypto::schnorr::SigningKey;

const MESSAGE: &[u8] = b"bill of lading #42";
const PLAINTEXT: &[u8] = b"status: shipped";

/// `(group, Signature::to_bytes, Ciphertext::to_bytes)` in hex.
type Golden = (fn() -> Group, &'static str, &'static str);

const GOLDEN: [Golden; 3] = [
    (
        Group::modp_768,
        "00000020b62ac118a72460e7ce974c66c3df11c56501a476564df3f59dfbb0fe\
         cf26707d2425992094bd107cdfdb89cc3358a3346a258dff3541244814414b9c\
         589edb64126c72e1c0ea0e2b0284667f1d9ea117545202f0317599d753a0e732\
         a9468c7b2a15461523fd8dac22e3b1e16d57991d1c6a367c769752131b02025c\
         90c93b5a",
        "00000060b8621c4a5da63b9fd32407cb4802edde6c11ad38bcabdcd5f29a5e89\
         04953a583d642bc92a506620582ed7b88e5481401fe8d2845ece88f2efc3cdd2\
         05f96377565951569ca4f8ef4b3cc99eb64c3868a16db7ade14dba5a2c4f5177\
         ffa86d1af22e51154339e01dd7ccfcb4ee8c8c6985e45cff6d53442cc0c5eb61\
         c41696016e1aa793f055ca197ccc57932314f9",
    ),
    (
        Group::modp_1024,
        "000000206528196a4f0a95238eb27f47f909afe093f41219edce7c44ff8c9367\
         ac501ed04b103d0f7808ed78f288fab093f6719c9f1f28e885d5dad0d9524cad\
         cb1a6fb61e03a44a0ca45b9044e77c8bd7f3a4c24f6c5016ab14734d6c9e6e2f\
         ef6ad10279cdecf59c01abf37f4574de6793ec682e1a09f702c8eda43dd5f508\
         7b5216b30e44e5732e2c471577911ff9370c910f2e6d900b6e30514210de766f\
         166004bd",
        "00000080eb316c060ec248bddbcac8f0592070b391b7885ac8c6cc6da610d37e\
         3534fb9bb149d7146c037a56d9165c44ba7d858058f9337af4d604b33e0163b8\
         187b1eab4202734d5a98671ef85de8fcc1e1bed6d67cddca70b78589cf893a2e\
         0787983291160d7d656b22dfad6ccd08be0bc97e4af456486c83196e03d29e48\
         77555f193e52b4f2a1a5c7dc3fa784401c332a3bcfe06095cda0d796c5156477\
         bc056d34578da28cfbb1fb7d630b13d15d1022",
    ),
    (
        Group::modp_2048,
        "00000020b0b76a364535a7ff76e747a09fdefdf873d9d2621c03ddab8deb0935\
         87d2e67d020fffcfa577ba61bdf7f34f732d63fa226d8da188903f81c7ab650a\
         15eefc2fc24b7b9f5f5601594b9ba30bfb280bb2f632fee8e3011a7d580a17ae\
         41326d15bfa1627a9f36161922f72266e2c780f0dbf065519f478b07da5a4b21\
         319e847f54a470e5db6c8700bdca65d99b8d142b2ffcc2907d737814e2829cd4\
         fd7fa78d1599d0a4979bcd49d61f4e42f73a322beac254bb4d945ececa85b2a4\
         d43fa00f604b25dde3d6f3cf6f14b321f01c9834a6f0d47359cf8be3a83d3bcb\
         af5d8ac7c630f62af3a0362c4cd74607af6c282717f62e2d842c79c26abbc066\
         4cc1ff2712cbef9d26ed335ade82232b54e1908c08bafbfd40c03a7ea31d3611\
         5eeac75f",
        "00000100ba815290fb778e108780b26f79806f7321d0ad1d04c24d9762a6d05c\
         d11a2b2e11af661253bae182e9073943a238573999422f5c5eb074f0c5f3a290\
         7b65b5eeb55b6d2af266916498bb4def08afc6673b3ee99a94147d0f1f474ba1\
         4dcf0e28943cde0f4eb934a472c3e802651f2e888752c232402e35a722c50f70\
         79881848c47aece940ef192ba14d0b9627a05f66d84d8becb877a56d675405a6\
         53be27e22f8c4c0c85e66e648d0e1079a8f1e3ee047c10cfc89a105131c7d308\
         fae3297fe0654c90da5b84fc6b69ac9a84e6ea68592c6b7b61d0214f1861d8fb\
         e92ac90614253a0dc4ec36a09ed5b01ec60e7d261ad75625ec7a54a1f0c40281\
         9a3d69b3b700aa09f9e550d806b329219999908a94b9d7430d61f8893b920639\
         de8ead41013633979daf34c2367029de7cf80f",
    ),
];

#[test]
fn signatures_are_byte_identical() {
    for (group, signature, _) in GOLDEN {
        let group = group();
        let key = SigningKey::from_seed(group.clone(), b"golden-signer");
        let sig = key.sign(MESSAGE);
        assert_eq!(hex_encode(&sig.to_bytes()), signature, "{}", group.name());
        assert!(key.verifying_key().verify(MESSAGE, &sig).is_ok());
    }
}

#[test]
fn ciphertexts_are_byte_identical() {
    for (group, _, ciphertext) in GOLDEN {
        let group = group();
        let dk = DecryptionKey::from_seed(group.clone(), b"golden-recipient");
        let ct = dk
            .encryption_key()
            .encrypt_deterministic(PLAINTEXT, b"golden-seed");
        assert_eq!(hex_encode(&ct.to_bytes()), ciphertext, "{}", group.name());
        assert_eq!(dk.decrypt(&ct).unwrap(), PLAINTEXT);
    }
}
