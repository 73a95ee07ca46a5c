"""Telescoping path setup (§3.4).

A source s establishes a k-hop path to a destination pseudonym by
extending one hop at a time, Tor-style, so that no party other than s
ever sees more than its own neighbors on the path:

* **Level 1**: s looks up hop 1 directly at the aggregator (safe: the
  aggregator observes the s -> h1 connection anyway), then deposits a
  CONNECT blob carrying a fresh link key and a lookup request for hop 2.
* **Level i**: the CONNECT blob for h_i travels through the established
  prefix (h_1 .. h_{i-1} peel one layer each); h_{i-1} mints the new
  link path id; h_i returns h_{i+1}'s verified public key along the
  reverse path.
* **Level k**: the request names the *destination* pseudonym.  h_k first
  ACKs along the reverse path, waits k C-rounds for complaints on the
  bulletin board, and only then fetches the destination key — this is
  the anonymity-set defence against a malicious penultimate hop
  described in §3.4.

The schedule costs sum(2i, i=1..k-1) + 3k = k^2 + 2k C-rounds, exactly
the paper's figure.
"""

from __future__ import annotations

import random
import struct

from repro.crypto import aead, rsa
from repro.crypto.merkle import InclusionProof
from repro.errors import CryptoError, ProtocolError
from repro.mixnet import hopselect, maps, onion
from repro.mixnet.network import (
    COMPLAINT_TAG,
    InLink,
    MixDevice,
    MixnetWorld,
    SourcePathState,
    TAG_CONNECT,
    TAG_FORWARD,
    TAG_REVERSE,
    link_keys,
)

_REQ_EXT = b"E"
_REQ_DST = b"D"
_RESP_KEY = b"K"
_RESP_ACK = b"A"


def encode_lookup(lookup: maps.M1Lookup) -> bytes:
    leaf = lookup.leaf.encode()
    out = struct.pack(">QH", lookup.index, len(leaf)) + leaf
    out += struct.pack(">H", len(lookup.proof.siblings))
    out += b"".join(lookup.proof.siblings)
    return out


def decode_lookup(data: bytes) -> maps.M1Lookup:
    index, leaf_len = struct.unpack(">QH", data[:10])
    leaf = maps.M1Leaf.decode(data[10 : 10 + leaf_len])
    offset = 10 + leaf_len
    (num_siblings,) = struct.unpack(">H", data[offset : offset + 2])
    offset += 2
    siblings = tuple(
        data[offset + 32 * i : offset + 32 * (i + 1)] for i in range(num_siblings)
    )
    return maps.M1Lookup(
        index=index, leaf=leaf, proof=InclusionProof(index=index, siblings=siblings)
    )


def _encode_request(
    prev_handle: bytes, position: int, request_tag: bytes, payload: bytes
) -> bytes:
    return prev_handle + bytes([position]) + request_tag + payload


def _decode_request(data: bytes) -> tuple[bytes, int, bytes, bytes]:
    return data[:32], data[32], data[33:34], data[34:]


def build_connect_blob(
    hop_pk: rsa.RsaPublicKey,
    base_key: bytes,
    arrival_round: int,
    prev_handle: bytes,
    position: int,
    request_tag: bytes,
    request_payload: bytes,
    rng: random.Random,
) -> bytes:
    """The CONNECT blob h_i parses on arrival: PEnc of the link key plus
    an AE-sealed request (who the predecessor is, and what to look up)."""
    penc = rsa.encrypt(hop_pk, base_key, rng)
    _, k_req, _ = link_keys(base_key)
    sealed = aead.ae_seal(
        k_req,
        arrival_round,
        _encode_request(prev_handle, position, request_tag, request_payload),
    )
    return struct.pack(">H", len(penc)) + penc + sealed


class TelescopeHandler:
    """Protocol logic shared by the driver and the device callbacks."""

    def __init__(self, world: MixnetWorld):
        self.world = world
        world.telescope_handler = self

    # -- source side ----------------------------------------------------------

    def start_path(
        self,
        device: MixDevice,
        slot: int,
        replica: int,
        dest_handle: bytes,
    ) -> SourcePathState:
        """Choose hops, perform the level-1 direct lookup, and deposit
        the first CONNECT blob."""
        world = self.world
        k = world.params.hops
        # The source must not pick one of its own pseudonyms as hop 1:
        # it performs that lookup directly (§3.4) and can trivially
        # resample, and a source-as-first-hop link would alias its two
        # roles onto one path id.  Later hops get fresh link path ids,
        # so self-selection there is harmless.  The destination's
        # pseudonym is excluded for the same reason at the other end:
        # as last hop it would hold an in-link under the very mailbox
        # the payload is addressed to, and take its own delivery for
        # reverse traffic on that link.  The source knows
        # ``dest_handle`` and resamples just as trivially.
        exclude: set[int] = {
            world.directory.index_of_handle(handle)
            for handle in (*device.handles, dest_handle)
        }
        hop_indices = []
        for position in range(1, k + 1):
            index = hopselect.sample_hop(
                device.rng,
                world.beacon,
                position,
                world.params.forwarder_fraction,
                world.directory.num_slots,
                exclude=exclude,
            )
            exclude.add(index)
            hop_indices.append(index)
        source_handle = device.identity.primary().handle
        path = SourcePathState(
            key=(slot, replica),
            dest_handle=dest_handle,
            hop_indices=hop_indices,
            source_handle=source_handle,
        )
        device.paths[(slot, replica)] = path

        lookup = world.verified_lookup(hop_indices[0])
        path.hop_handles.append(lookup.leaf.handle)
        path.hop_pks.append(lookup.leaf.public_key)
        base_key = bytes(device.rng.randrange(256) for _ in range(32))
        path.hop_keys.append(base_key)
        path.first_path_id = onion.new_path_id(device.rng)
        path.next_level = 1
        path.connect_round = world.current_round
        request_tag, payload = self._request_for_level(path, 1)
        blob = build_connect_blob(
            hop_pk=lookup.leaf.public_key,
            base_key=base_key,
            arrival_round=world.current_round + 1,
            prev_handle=source_handle,
            position=1,
            request_tag=request_tag,
            request_payload=payload,
            rng=device.rng,
        )
        device.queue_deposit(lookup.leaf.handle, path.first_path_id, blob)
        return path

    def _request_for_level(
        self, path: SourcePathState, level: int
    ) -> tuple[bytes, bytes]:
        """What hop ``level`` is asked to look up."""
        k = self.world.params.hops
        if level < k:
            return _REQ_EXT, struct.pack(">Q", path.hop_indices[level])
        return _REQ_DST, path.dest_handle

    def _extend(self, device: MixDevice, path: SourcePathState) -> None:
        """Send CONNECT for the next level through the established
        prefix."""
        world = self.world
        level = path.next_level + 1
        path.next_level = level
        rho = world.current_round
        path.connect_round = rho
        base_key = bytes(device.rng.randrange(256) for _ in range(32))
        path.hop_keys.append(base_key)
        request_tag, payload = self._request_for_level(path, level)
        blob = build_connect_blob(
            hop_pk=path.hop_pks[level - 1],
            base_key=base_key,
            arrival_round=rho + level,
            prev_handle=path.hop_handles[level - 2],
            position=level,
            request_tag=request_tag,
            request_payload=payload,
            rng=device.rng,
        )
        # Wrap: hops 1..level-2 see FORWARD, hop level-1 sees CONNECT.
        body = TAG_CONNECT + blob
        for j in range(level - 1, 0, -1):
            k_fwd, _, _ = link_keys(path.hop_keys[j - 1])
            body = aead.senc(k_fwd, rho + j, body)
            if j > 1:
                body = TAG_FORWARD + body
        device.queue_deposit(path.hop_handles[0], path.first_path_id, body)

    def source_reverse(
        self,
        world: MixnetWorld,
        device: MixDevice,
        path: SourcePathState,
        round_number: int,
        wrapped: bytes,
    ) -> None:
        """Unwrap a reverse-path message at the source and advance the
        path state machine."""
        level = path.next_level
        rho = path.connect_round
        k = world.params.hops
        # Candidate (inner AE round, description) schedules: EXT/ACK
        # responses arrive at rho + 2*level; the final KEY response (after
        # the complaint window) arrives at rho + 3*k.
        candidates = []
        if not path.got_ack or level < k:
            candidates.append(rho + level)
        if level == k:
            candidates.append(rho + 2 * k)
        # Peel intermediate hops' layers (hop j wrapped at round
        # arrival_round - j, for j = 1..level-1, nearest hop last).
        payload = None
        for inner_round in candidates:
            body = wrapped
            arrival = round_number
            for j in range(1, level):
                _, _, k_rev = link_keys(path.hop_keys[j - 1])
                body = aead.senc(k_rev, arrival - j, body)
            _, _, k_rev_target = link_keys(path.hop_keys[level - 1])
            try:
                payload = aead.ae_open(k_rev_target, inner_round, body)
                break
            except CryptoError:
                continue
        if payload is None:
            return
        tag, rest = payload[:1], payload[1:]
        if tag == _RESP_ACK:
            path.got_ack = True
            return
        if tag != _RESP_KEY:
            return
        lookup = decode_lookup(rest)
        if not maps.verify_m1_lookup(world.m1_root, lookup):
            device.protocol_violations.append("invalid lookup in response")
            path.failed = True
            return
        if level < k:
            if lookup.index != path.hop_indices[level]:
                device.protocol_violations.append("hop returned wrong index")
                path.failed = True
                return
            path.hop_handles.append(lookup.leaf.handle)
            path.hop_pks.append(lookup.leaf.public_key)
            self._extend(device, path)
        else:
            if lookup.leaf.handle != path.dest_handle:
                device.protocol_violations.append("wrong destination key")
                path.failed = True
                return
            path.dest_pk = lookup.leaf.public_key
            path.established = True

    # -- hop side --------------------------------------------------------------

    def hop_connect(
        self,
        world: MixnetWorld,
        device: MixDevice,
        round_number: int,
        dest_handle: bytes,
        message: onion.WireMessage,
    ) -> None:
        """Parse a CONNECT blob arriving on a fresh path id."""
        body = message.body
        if len(body) < 2:
            return
        (penc_len,) = struct.unpack(">H", body[:2])
        if len(body) < 2 + penc_len:
            return
        try:
            identity = device.identity.identity_for_handle(dest_handle)
            base_key = rsa.decrypt(identity.private_key, body[2 : 2 + penc_len])
            if len(base_key) != 32:
                return
            _, k_req, _ = link_keys(base_key)
            request = aead.ae_open(k_req, round_number, body[2 + penc_len :])
        except (CryptoError, ProtocolError):
            return  # dummy / not for us
        prev_handle, position, tag, payload = _decode_request(request)
        link = InLink(
            path_id=message.path_id,
            base_key=base_key,
            prev_mailbox=prev_handle,
            my_handle=dest_handle,
            position=position,
            # Every hop masks missing inputs during forwarding (§3.5);
            # links that never grow an out-link simply have nowhere to
            # send dummies and are skipped there.
            expects_forward_traffic=True,
        )
        device.in_links[message.path_id] = link
        _, _, k_rev = link_keys(base_key)
        if tag == _REQ_EXT:
            (next_index,) = struct.unpack(">Q", payload)
            lookup = world.verified_lookup(next_index)
            link.pending_next = lookup.leaf.handle
            response = aead.ae_seal(
                k_rev, round_number, _RESP_KEY + encode_lookup(lookup)
            )
            device.queue_deposit(
                prev_handle, message.path_id, TAG_REVERSE + response
            )
        elif tag == _REQ_DST:
            link.pending_dst = payload
            ack = aead.ae_seal(k_rev, round_number, _RESP_ACK)
            device.queue_deposit(prev_handle, message.path_id, TAG_REVERSE + ack)
            device.schedule(
                round_number + world.params.hops, "dst-lookup", message.path_id
            )

    def scheduled(
        self,
        world: MixnetWorld,
        device: MixDevice,
        round_number: int,
        action: str,
        path_id: bytes,
    ) -> None:
        if action != "dst-lookup":
            return
        link = device.in_links.get(path_id)
        if link is None or getattr(link, "pending_dst", None) is None:
            return
        # §3.4: if any source complained, *no* last hop fetches keys.
        if world.complaints():
            device.protocol_violations.append("complaint seen; aborting key fetch")
            return
        dst_handle = link.pending_dst
        link.pending_dst = None
        try:
            lookup = world.verified_lookup_by_handle(dst_handle)
        except ProtocolError:
            return
        link.next_mailbox = dst_handle
        link.out_path_id = onion.new_path_id(device.rng)
        link.expects_forward_traffic = True
        device.out_to_in[link.out_path_id] = link.path_id
        _, _, k_rev = link_keys(link.base_key)
        response = aead.ae_seal(
            k_rev, round_number, _RESP_KEY + encode_lookup(lookup)
        )
        device.queue_deposit(link.prev_mailbox, link.path_id, TAG_REVERSE + response)


class TelescopeDriver:
    """Run path setup for a batch of (device, slot, replica, dest)."""

    def __init__(self, world: MixnetWorld):
        self.world = world
        self.handler = (
            world.telescope_handler
            if isinstance(world.telescope_handler, TelescopeHandler)
            else TelescopeHandler(world)
        )

    def setup_paths(
        self,
        requests: list[tuple[int, int, int, bytes]],
        extra_rounds: int = 2,
    ) -> dict[tuple[int, int, int], SourcePathState]:
        """``requests`` holds (device_id, slot, replica, dest_handle).

        Runs k^2 + 2k C-rounds (plus slack) and returns the path states.
        """
        world = self.world
        k = world.params.hops
        paths: dict[tuple[int, int, int], SourcePathState] = {}
        for device_id, slot, replica, dest_handle in requests:
            device = world.devices[device_id]
            if not device.online:
                continue
            paths[(device_id, slot, replica)] = self.handler.start_path(
                device, slot, replica, dest_handle
            )
        # The initial CONNECT deposit happens in round 0; the protocol's
        # k^2 + 2k C-rounds then play out in rounds 1 .. k^2 + 2k.
        total_rounds = k * k + 2 * k + 1 + extra_rounds
        for _ in range(total_rounds):
            world.run_round()
            self._check_timeouts(paths)
        for path in paths.values():
            if not path.established:
                path.failed = True
        return paths

    def _check_timeouts(
        self, paths: dict[tuple[int, int, int], SourcePathState]
    ) -> None:
        """Sources complain when an expected ACK never arrives (§3.4)."""
        world = self.world
        k = world.params.hops
        for (device_id, _, _), path in paths.items():
            if path.established or path.failed:
                continue
            if path.next_level == k and not path.got_ack:
                if world.current_round > path.connect_round + 2 * k + 1:
                    world.board.post(
                        f"device-{device_id}", COMPLAINT_TAG, b"missing-ack"
                    )
                    path.failed = True
