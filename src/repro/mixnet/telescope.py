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

import struct

from repro import telemetry
from repro.crypto import aead, rsa
from repro.crypto.merkle import InclusionProof
from repro.crypto.poly1305 import TAG_BYTES
from repro.errors import CryptoError, ProtocolError
from repro.mixnet import hopselect, maps, onion
from repro.mixnet.network import (
    COMPLAINT_TAG,
    InLink,
    MixDevice,
    MixnetWorld,
    PendingSeal,
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
        self._connect(device, path, 1)
        return path

    def _request_for_level(
        self, path: SourcePathState, level: int
    ) -> tuple[bytes, bytes]:
        """What hop ``level`` is asked to look up."""
        k = self.world.params.hops
        if level < k:
            return _REQ_EXT, struct.pack(">Q", path.hop_indices[level])
        return _REQ_DST, path.dest_handle

    def _connect(self, device: MixDevice, path: SourcePathState, level: int) -> None:
        """Deposit the CONNECT blob for hop ``level`` — PEnc of a fresh
        link key plus an AE-sealed request (who the predecessor is, and
        what to look up) — through the established prefix: hops
        1..level-2 see FORWARD, hop level-1 sees CONNECT, and a level-1
        blob goes straight to hop 1 under a fresh path id.  The blob is
        sealed with the world's next seal wave."""
        world = self.world
        rho = world.current_round
        path.next_level = level
        path.connect_round = rho
        base_key = bytes(device.rng.randrange(256) for _ in range(32))
        path.hop_keys.append(link_keys(base_key))
        if level == 1:
            path.first_path_id = onion.new_path_id(device.rng)
            prev_handle, head = path.source_handle, b""
        else:
            prev_handle, head = path.hop_handles[level - 2], TAG_CONNECT
        penc = rsa.encrypt(path.hop_pks[level - 1], base_key, device.rng)
        _, k_req, _ = path.hop_keys[-1]
        request_tag, payload = self._request_for_level(path, level)
        # Hop j peels its layer in round rho + j; the hop at level
        # arrives at rho + level.
        layers = tuple(
            (path.hop_keys[j - 1][0], rho + j, TAG_FORWARD if j > 1 else b"")
            for j in range(level - 1, 0, -1)
        )
        world.deposit_sealed(
            device,
            path.hop_handles[0],
            PendingSeal(
                path_id=path.first_path_id,
                head=head + struct.pack(">H", len(penc)) + penc,
                key=k_req,
                round_number=rho + level,
                plaintext=_encode_request(prev_handle, level, request_tag, payload),
                layers=layers,
            ),
        )

    def _reverse_keys(
        self, path: SourcePathState, round_number: int
    ) -> tuple[list[tuple[bytes, int]], bytes, list[int]]:
        """How the source unwraps a reverse message on ``path`` arriving
        in ``round_number``: the SEnc layers ``(key, round)`` that hops
        1..level-1 added, the key of hop ``level``'s AE response, and the
        rounds that response may be sealed under."""
        level = path.next_level
        rho = path.connect_round
        k = self.world.params.hops
        # EXT/ACK responses are sealed at rho + level (arriving at rho +
        # 2*level); the final KEY response, after the complaint window,
        # at rho + 2k (arriving at rho + 3k).
        candidates = []
        if not path.got_ack or level < k:
            candidates.append(rho + level)
        if level == k:
            candidates.append(rho + 2 * k)
        # Hop j wrapped at arrival_round - j, for j = 1..level-1.
        layers = [(path.hop_keys[j - 1][2], round_number - j) for j in range(1, level)]
        _, _, k_rev_target = path.hop_keys[level - 1]
        return layers, k_rev_target, candidates

    def reverse_streams(
        self, path: SourcePathState, round_number: int, wrapped: bytes
    ) -> list[tuple[bytes, bytes, int, int]]:
        """The keystreams :meth:`source_reverse` runs on for ``wrapped``,
        every candidate round's AE open included."""
        layers, k_rev_target, candidates = self._reverse_keys(path, round_number)
        streams = [aead.senc_stream(key, r, len(wrapped)) for key, r in layers]
        if len(wrapped) >= TAG_BYTES:
            streams += [
                aead.ae_stream(k_rev_target, r, len(wrapped) - TAG_BYTES)
                for r in candidates
            ]
        return streams

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
        k = world.params.hops
        layers, k_rev_target, candidates = self._reverse_keys(path, round_number)
        body = wrapped
        for key, r in layers:
            body = aead.senc(key, r, body)
        opened = aead.ae_open_many([(k_rev_target, r, body) for r in candidates])
        payload = next((p for p in opened if p is not None), None)
        if payload is None:
            telemetry.count("mixnet.reverse.dropped")
            return
        tag, rest = payload[:1], payload[1:]
        if tag == _RESP_ACK:
            path.got_ack = True
            return
        if tag != _RESP_KEY:
            telemetry.count("mixnet.reverse.dropped")
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
            self._connect(device, path, level + 1)
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
        try:
            base_key, sealed = device.open_envelope(world, dest_handle, message.body)
            _, k_req, _ = link_keys(base_key)
            request = aead.ae_open(k_req, round_number, sealed)
        except ProtocolError:
            telemetry.count("mixnet.connect.malformed")
            return
        except CryptoError:
            telemetry.count("mixnet.connect.undecryptable")
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
        _, _, k_rev = link.keys
        if tag == _REQ_EXT:
            (next_index,) = struct.unpack(">Q", payload)
            lookup = world.verified_lookup(next_index)
            link.pending_next = lookup.leaf.handle
            response = _RESP_KEY + encode_lookup(lookup)
        elif tag == _REQ_DST:
            link.pending_dst = payload
            response = _RESP_ACK
            device.schedule(
                round_number + world.params.hops, "dst-lookup", message.path_id
            )
        else:
            telemetry.count("mixnet.connect.malformed")
            return
        world.deposit_sealed(
            device,
            prev_handle,
            PendingSeal(message.path_id, TAG_REVERSE, k_rev, round_number, response),
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
            telemetry.count("mixnet.dst_lookup.unmatched")
            return
        # §3.4: if any source complained, *no* last hop fetches keys.
        if world.complaints():
            telemetry.count("mixnet.dst_lookup.aborted")
            device.protocol_violations.append("complaint seen; aborting key fetch")
            return
        dst_handle = link.pending_dst
        link.pending_dst = None
        try:
            lookup = world.verified_lookup_by_handle(dst_handle)
        except ProtocolError:
            telemetry.count("mixnet.dst_lookup.unverified")
            return
        link.next_mailbox = dst_handle
        link.out_path_id = onion.new_path_id(device.rng)
        link.expects_forward_traffic = True
        device.out_to_in[link.out_path_id] = link.path_id
        _, _, k_rev = link.keys
        world.deposit_sealed(
            device,
            link.prev_mailbox,
            PendingSeal(
                link.path_id,
                TAG_REVERSE,
                k_rev,
                round_number,
                _RESP_KEY + encode_lookup(lookup),
            ),
        )


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
