//! Distributed commit between compute nodes — §4 Challenge 5.
//!
//! Relevant only for the sharded architecture (Figure 3c): a transaction
//! touching shards owned by other compute nodes ships the remote sub-work
//! to the owners over two-sided messages and commits it with the
//! *last-agent* rule (Samaras et al., ICDE 1993). The coordinator
//! prepares its own part, sends `Prepare` to every remote owner but the
//! last and collects their votes, and only if all said yes sends the last
//! owner (the highest owner id) a `PrepareCommit`. That owner prepares
//! and, if it can, commits at once: its `VoteYes` is the decision, so no
//! decision or ack for it crosses the wire. The coordinator then applies
//! its own part and sends `Commit` / `Abort` to the owners it prepared
//! (each answers `Ack`). With one remote owner a cross-shard transaction
//! is two messages — the classic 2PC round trip of prepare and vote, with
//! the decision round folded into it.
//!
//! This module is the wire format; the coordinator and the owners' message
//! loop live in `dsmdb`'s engine.
//!
//! The same challenge notes the RDMA-native alternative: "If a compute
//! node uses one-sided RDMA to access memory nodes, it knows whether or
//! not a write is successful" — i.e. cross-shard data can also be reached
//! directly with one-sided verbs + locks, skipping distributed commit
//! entirely. Experiment **C11** compares both paths.

/// Commit wire-message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Coordinator -> owner: prepare, body = sub-transaction.
    Prepare = 1,
    /// Owner -> coordinator: prepared (committed, after `PrepareCommit`);
    /// body = the sub-transaction's reads.
    VoteYes = 2,
    /// Owner -> coordinator: must abort; nothing is held or applied.
    VoteNo = 3,
    /// Coordinator -> prepared owner: commit.
    Commit = 4,
    /// Coordinator -> prepared owner: abort/rollback.
    Abort = 5,
    /// Owner -> coordinator: commit/abort applied.
    Ack = 6,
    /// Coordinator -> last agent: prepare and, if that succeeds, commit;
    /// body = sub-transaction.
    PrepareCommit = 7,
}

impl MsgKind {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => MsgKind::Prepare,
            2 => MsgKind::VoteYes,
            3 => MsgKind::VoteNo,
            4 => MsgKind::Commit,
            5 => MsgKind::Abort,
            6 => MsgKind::Ack,
            7 => MsgKind::PrepareCommit,
            _ => return None,
        })
    }
}

/// A decoded commit message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoPcMsg {
    /// Message kind.
    pub kind: MsgKind,
    /// Transaction id (coordinator-chosen, unique per coordinator).
    pub txn_id: u64,
    /// Application body (sub-transaction encoding for the prepares, the
    /// reads for `VoteYes`, empty otherwise).
    pub body: Vec<u8>,
}

/// Encode a commit message.
pub fn encode(kind: MsgKind, txn_id: u64, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + body.len());
    out.push(kind as u8);
    out.extend_from_slice(&txn_id.to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Decode a commit message (None for foreign/garbled payloads).
pub fn decode(payload: &[u8]) -> Option<TwoPcMsg> {
    if payload.len() < 9 {
        return None;
    }
    Some(TwoPcMsg {
        kind: MsgKind::from_u8(payload[0])?,
        txn_id: u64::from_le_bytes(payload[1..9].try_into().ok()?),
        body: payload[9..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let e = encode(MsgKind::Prepare, 42, b"work");
        let m = decode(&e).unwrap();
        assert_eq!(m.kind, MsgKind::Prepare);
        assert_eq!(m.txn_id, 42);
        assert_eq!(m.body, b"work");
        assert!(decode(&[1, 2]).is_none());
        assert!(decode(&encode(MsgKind::Ack, 1, &[])).is_some());
        let last = decode(&encode(MsgKind::PrepareCommit, 7, b"w")).unwrap();
        assert_eq!((last.kind, last.txn_id, &last.body[..]), (MsgKind::PrepareCommit, 7, &b"w"[..]));
        let mut bad = encode(MsgKind::Ack, 1, &[]);
        bad[0] = 99;
        assert!(decode(&bad).is_none());
    }
}
