//! Wire codecs for the protocol message enums: what puts the zoo's
//! automata on a real socket.
//!
//! Each codec implements [`WireCodec`] for one message type with a
//! hand-rolled tagged little-endian record (the vendored serde shim is
//! marker-only, so there is no derive to lean on). The discipline is the
//! one `swiper_net::codec` documents: exact round-tripping, every decode
//! consuming precisely the body it is given — a trailing byte or an
//! unknown tag is version skew and fails loudly, it never produces a
//! near-miss message.
//!
//! These codecs are what the socket variants of `tests/runtime_twin.rs`
//! run through: the determinism-twin contract must survive a real
//! encode → TCP → decode round trip, which is exactly what these types
//! make possible.

use swiper_crypto::hash::Digest;
use swiper_crypto::thresh::PartialSignature;
use swiper_field::F61;
use swiper_net::{put_bool, put_slice, put_u32, put_u64, WireCodec, WireError, WireReader};

use crate::aba::AbaMsg;
use crate::bracha::BrachaMsg;
use crate::smr::SmrMsg;

fn put_digest(out: &mut Vec<u8>, d: &Digest) {
    out.extend_from_slice(d.as_bytes());
}

fn take_digest(r: &mut WireReader<'_>) -> Result<Digest, WireError> {
    let raw = r.take_bytes(32)?;
    Ok(Digest(raw.try_into().expect("32 bytes")))
}

fn take_f61(r: &mut WireReader<'_>) -> Result<F61, WireError> {
    let v = r.take_u64()?;
    let f = F61::new(v);
    // `new` reduces mod p; a wire value it does not fix is non-canonical.
    if f.value() != v {
        return Err(WireError::BadValue("F61 element not canonical"));
    }
    Ok(f)
}

/// Codec for [`BrachaMsg`].
#[derive(Debug, Default, Clone, Copy)]
pub struct BrachaCodec;

impl WireCodec<BrachaMsg> for BrachaCodec {
    fn encode(&self, msg: &BrachaMsg, out: &mut Vec<u8>) {
        match msg {
            BrachaMsg::Initial(p) => {
                out.push(0);
                put_slice(out, p);
            }
            BrachaMsg::Echo(d) => {
                out.push(1);
                put_digest(out, d);
            }
            BrachaMsg::Ready(d) => {
                out.push(2);
                put_digest(out, d);
            }
            BrachaMsg::Request(d) => {
                out.push(3);
                put_digest(out, d);
            }
            BrachaMsg::Payload(p) => {
                out.push(4);
                put_slice(out, p);
            }
        }
    }

    fn decode(&self, buf: &[u8]) -> Result<BrachaMsg, WireError> {
        let mut r = WireReader::new(buf);
        let msg = match r.take_u8()? {
            0 => BrachaMsg::Initial(r.take_slice()?.to_vec()),
            1 => BrachaMsg::Echo(take_digest(&mut r)?),
            2 => BrachaMsg::Ready(take_digest(&mut r)?),
            3 => BrachaMsg::Request(take_digest(&mut r)?),
            4 => BrachaMsg::Payload(r.take_slice()?.to_vec()),
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Codec for [`AbaMsg`].
#[derive(Debug, Default, Clone, Copy)]
pub struct AbaCodec;

impl WireCodec<AbaMsg> for AbaCodec {
    fn encode(&self, msg: &AbaMsg, out: &mut Vec<u8>) {
        match msg {
            AbaMsg::BVal { round, value } => {
                out.push(0);
                put_u32(out, *round);
                put_bool(out, *value);
            }
            AbaMsg::Aux { round, value } => {
                out.push(1);
                put_u32(out, *round);
                put_bool(out, *value);
            }
            AbaMsg::CoinShare { round, partials } => {
                out.push(2);
                put_u32(out, *round);
                put_u32(out, u32::try_from(partials.len()).expect("share count fits u32"));
                for p in partials {
                    put_u64(out, p.index);
                    put_u64(out, p.value.value());
                }
            }
            AbaMsg::Decided { value } => {
                out.push(3);
                put_bool(out, *value);
            }
        }
    }

    fn decode(&self, buf: &[u8]) -> Result<AbaMsg, WireError> {
        let mut r = WireReader::new(buf);
        let msg = match r.take_u8()? {
            0 => AbaMsg::BVal { round: r.take_u32()?, value: r.take_bool()? },
            1 => AbaMsg::Aux { round: r.take_u32()?, value: r.take_bool()? },
            2 => {
                let round = r.take_u32()?;
                let count = r.take_u32()? as usize;
                // Truncation would surface on the next take anyway; the
                // explicit bound stops a corrupt count from preallocating.
                let mut partials = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    let index = r.take_u64()?;
                    let value = take_f61(&mut r)?;
                    partials.push(PartialSignature { index, value });
                }
                AbaMsg::CoinShare { round, partials }
            }
            3 => AbaMsg::Decided { value: r.take_bool()? },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Codec for [`SmrMsg`].
#[derive(Debug, Default, Clone, Copy)]
pub struct SmrCodec;

impl WireCodec<SmrMsg> for SmrCodec {
    fn encode(&self, msg: &SmrMsg, out: &mut Vec<u8>) {
        match msg {
            SmrMsg::Propose(round, batch) => {
                out.push(0);
                put_u64(out, *round);
                put_slice(out, batch);
            }
            SmrMsg::Echo(round, d) => {
                out.push(1);
                put_u64(out, *round);
                put_digest(out, d);
            }
            SmrMsg::Ready(round, d) => {
                out.push(2);
                put_u64(out, *round);
                put_digest(out, d);
            }
        }
    }

    fn decode(&self, buf: &[u8]) -> Result<SmrMsg, WireError> {
        let mut r = WireReader::new(buf);
        let msg = match r.take_u8()? {
            0 => {
                let round = r.take_u64()?;
                SmrMsg::Propose(round, r.take_slice()?.to_vec())
            }
            1 => {
                let round = r.take_u64()?;
                SmrMsg::Echo(round, take_digest(&mut r)?)
            }
            2 => {
                let round = r.take_u64()?;
                SmrMsg::Ready(round, take_digest(&mut r)?)
            }
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: PartialEq + std::fmt::Debug, C: WireCodec<M>>(codec: &C, msgs: Vec<M>) {
        for msg in msgs {
            let mut buf = Vec::new();
            codec.encode(&msg, &mut buf);
            assert_eq!(codec.decode(&buf).as_ref(), Ok(&msg));
            // Strictness: a trailing byte is version skew, not noise.
            buf.push(0xAA);
            assert!(codec.decode(&buf).is_err(), "{msg:?} accepted trailing bytes");
        }
    }

    #[test]
    fn bracha_messages_roundtrip() {
        let d = swiper_crypto::hash::digest(b"payload");
        roundtrip(
            &BrachaCodec,
            vec![
                BrachaMsg::Initial(Vec::new()),
                BrachaMsg::Initial(b"payload".to_vec()),
                BrachaMsg::Echo(d),
                BrachaMsg::Ready(d),
                BrachaMsg::Request(d),
                BrachaMsg::Payload(Vec::new()),
                BrachaMsg::Payload(b"payload".to_vec()),
            ],
        );
        assert_eq!(BrachaCodec.decode(&[9]), Err(WireError::BadTag(9)));
        assert_eq!(BrachaCodec.decode(&[]), Err(WireError::Truncated));
    }

    /// A peer still speaking the payload-on-every-vote layout (`Echo` tag,
    /// digest, length-prefixed payload) is version skew: its frame must
    /// fail on the bytes after the digest, not decode as a bare vote.
    #[test]
    fn bracha_old_layout_echo_fails_on_trailing_bytes() {
        let mut old = vec![1];
        put_digest(&mut old, &swiper_crypto::hash::digest(b"payload"));
        put_slice(&mut old, b"payload");
        assert_eq!(BrachaCodec.decode(&old), Err(WireError::TrailingBytes(4 + 7)));
    }

    /// The socket is untrusted input: whatever bytes arrive, decoding
    /// returns a message or an error, never panics — and a message it
    /// does return re-encodes to exactly the bytes it came from.
    fn assert_decode_total<M: std::fmt::Debug, C: WireCodec<M>>(codec: &C, buf: &[u8]) {
        if let Ok(msg) = codec.decode(buf) {
            let mut again = Vec::new();
            codec.encode(&msg, &mut again);
            assert_eq!(again, buf, "{msg:?} did not re-encode to its bytes");
        }
    }

    /// A valid frame decodes to its message, and every strict prefix of
    /// it (a frame cut short on the wire) is an error, not a panic.
    fn assert_cut_short_frames_fail<M, C>(codec: &C, msg: &M)
    where
        M: std::fmt::Debug + PartialEq,
        C: WireCodec<M>,
    {
        let mut buf = Vec::new();
        codec.encode(msg, &mut buf);
        assert_eq!(codec.decode(&buf).as_ref(), Ok(msg));
        for cut in 0..buf.len() {
            assert!(codec.decode(&buf[..cut]).is_err(), "{msg:?} decoded from {cut} bytes");
        }
    }

    proptest::proptest! {
        #[test]
        fn bracha_decode_never_panics_on_arbitrary_bytes(
            tag in 0u8..8,
            body in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..80),
        ) {
            for buf in [body.clone(), [vec![tag], body].concat()] {
                assert_decode_total(&BrachaCodec, &buf);
            }
        }

        #[test]
        fn aba_decode_never_panics_on_arbitrary_bytes(
            tag in 0u8..8,
            body in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..80),
            round in proptest::arbitrary::any::<u32>(),
            value in proptest::arbitrary::any::<bool>(),
            shares in proptest::collection::vec(
                (proptest::arbitrary::any::<u64>(), proptest::arbitrary::any::<u64>()),
                0..4,
            ),
        ) {
            for buf in [body.clone(), [vec![tag], body].concat()] {
                assert_decode_total(&AbaCodec, &buf);
            }
            let partials = shares
                .iter()
                .map(|&(index, v)| PartialSignature { index, value: F61::new(v) })
                .collect();
            for msg in [
                AbaMsg::BVal { round, value },
                AbaMsg::Aux { round, value },
                AbaMsg::CoinShare { round, partials },
                AbaMsg::Decided { value },
            ] {
                assert_cut_short_frames_fail(&AbaCodec, &msg);
            }
        }

        #[test]
        fn smr_decode_never_panics_on_arbitrary_bytes(
            tag in 0u8..8,
            body in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..80),
            round in proptest::arbitrary::any::<u64>(),
        ) {
            for buf in [body.clone(), [vec![tag], body.clone()].concat()] {
                assert_decode_total(&SmrCodec, &buf);
            }
            let d = swiper_crypto::hash::digest(&body);
            for msg in [SmrMsg::Propose(round, body), SmrMsg::Echo(round, d), SmrMsg::Ready(round, d)]
            {
                assert_cut_short_frames_fail(&SmrCodec, &msg);
            }
        }
    }

    #[test]
    fn aba_messages_roundtrip() {
        let partials = (0..5)
            .map(|i| PartialSignature { index: i, value: F61::new(i * 31 + 7) })
            .collect();
        roundtrip(
            &AbaCodec,
            vec![
                AbaMsg::BVal { round: 0, value: false },
                AbaMsg::BVal { round: 3, value: true },
                AbaMsg::Aux { round: u32::MAX, value: true },
                AbaMsg::CoinShare { round: 2, partials: Vec::new() },
                AbaMsg::CoinShare { round: 2, partials },
                AbaMsg::Decided { value: false },
            ],
        );
        // A non-canonical field element must not decode.
        let mut buf = Vec::new();
        AbaCodec.encode(
            &AbaMsg::CoinShare {
                round: 1,
                partials: vec![PartialSignature { index: 0, value: F61::new(1) }],
            },
            &mut buf,
        );
        let value_at = buf.len() - 8;
        buf[value_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            AbaCodec.decode(&buf),
            Err(WireError::BadValue("F61 element not canonical"))
        );
    }

    #[test]
    fn smr_messages_roundtrip() {
        let d = swiper_crypto::hash::digest(b"batch");
        roundtrip(
            &SmrCodec,
            vec![
                SmrMsg::Propose(0, Vec::new()),
                SmrMsg::Propose(41, b"batch bytes".to_vec()),
                SmrMsg::Echo(41, d),
                SmrMsg::Ready(u64::MAX, d),
            ],
        );
        assert!(SmrCodec.decode(&[1, 0, 0]).is_err(), "truncated echo must not decode");
    }
}
