"""Per-tenant key domains on top of the engines' MAC-domain separation.

:class:`~repro.crypto.primitives.MacDomain` keeps a MAC from verifying
outside the *structural* role it was written for (data vs tree node vs CHV).
Multi-tenancy needs the orthogonal guarantee: tenant A's ciphertext and MACs
must never decrypt or verify under tenant B's keys, even at the same address
shape.  This module derives one (AES key, MAC key) pair per tenant from the
controller's master keys and swaps keyed engine subclasses into the
controller via the :class:`~repro.crypto.engine.KeySchedule` injection point.

Only the *data-path* operations are tenant-keyed (block encryption and the
per-block data/CHV MACs, which carry a data address).  Metadata — counters,
tree nodes, DLM second-level digests — stays under the controller's master
key: the integrity tree spans all tenants by construction, and its nodes
carry no tenant-addressable content.
"""

import hashlib
from bisect import bisect_right
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.common.constants import CACHE_LINE_SIZE, MAC_SIZE
from repro.common.errors import ConfigError
from repro.crypto import batch
from repro.crypto.engine import (
    DEFAULT_AES_KEY,
    DEFAULT_MAC_KEY,
    AesEngine,
    MacEngine,
    block_domain,
)
from repro.crypto.primitives import MacDomain, int_field
from repro.stats.counters import SimStats
from repro.stats.events import AesKind, MacKind

TENANT_KEY_SIZE = 32
_PLACEHOLDER_MAC = bytes(MAC_SIZE)

MASTER_TENANT = -1
"""Pseudo tenant id for addresses no extent owns (master-keyed)."""


def derive_tenant_key(master: bytes, tenant_id: int,
                      label: bytes = b"tenant") -> bytes:
    """Derive one tenant's key from a master key (keyed BLAKE2b KDF).

    Deterministic in (master, tenant_id, label) only — a tenant keeps its
    key across shards, reshardings, and restarts — and one-way, so a
    captured tenant key reveals nothing about the master or its siblings.
    """
    if tenant_id < 0:
        raise ConfigError(f"tenant id must be non-negative, got {tenant_id}")
    digest = hashlib.blake2b(key=master, digest_size=TENANT_KEY_SIZE)
    digest.update(label)
    digest.update(int_field(tenant_id))
    return digest.digest()


@dataclass(frozen=True)
class TenantExtent:
    """One tenant's contiguous slice of a data space."""

    tenant_id: int
    base: int
    size: int

    def __post_init__(self) -> None:
        if self.tenant_id < 0:
            raise ConfigError(
                f"tenant id must be non-negative, got {self.tenant_id}")
        if self.base < 0 or self.base % CACHE_LINE_SIZE:
            raise ConfigError(
                f"tenant {self.tenant_id} base {self.base:#x} must be a "
                f"non-negative line multiple")
        if self.size <= 0 or self.size % CACHE_LINE_SIZE:
            raise ConfigError(
                f"tenant {self.tenant_id} size {self.size:#x} must be a "
                f"positive line multiple")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class TenantKeyring:
    """Address → tenant → key resolution over disjoint tenant extents.

    Addresses outside every extent resolve to the master keys
    (:data:`MASTER_TENANT`), so a keyring is total over its data space and
    a ring with no extents degenerates to exactly the unkeyed engines.
    """

    def __init__(self, extents: Sequence[TenantExtent],
                 aes_master: bytes = DEFAULT_AES_KEY,
                 mac_master: bytes = DEFAULT_MAC_KEY):
        ordered = sorted(extents, key=lambda extent: extent.base)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.end > later.base:
                raise ConfigError(
                    f"tenant extents overlap: tenant {earlier.tenant_id} "
                    f"[{earlier.base:#x}, {earlier.end:#x}) and tenant "
                    f"{later.tenant_id} [{later.base:#x}, {later.end:#x})")
        self.extents = tuple(ordered)
        self.aes_master = aes_master
        self.mac_master = mac_master
        self._bases = [extent.base for extent in ordered]
        self._aes_keys: dict[int, bytes] = {MASTER_TENANT: aes_master}
        self._mac_keys: dict[int, bytes] = {MASTER_TENANT: mac_master}

    def tenant_of(self, address: int) -> int:
        """The tenant owning ``address`` (:data:`MASTER_TENANT` if none)."""
        index = bisect_right(self._bases, address) - 1
        if index >= 0 and self.extents[index].contains(address):
            return self.extents[index].tenant_id
        return MASTER_TENANT

    def aes_key(self, tenant_id: int) -> bytes:
        key = self._aes_keys.get(tenant_id)
        if key is None:
            key = derive_tenant_key(self.aes_master, tenant_id)
            self._aes_keys[tenant_id] = key
        return key

    def mac_key(self, tenant_id: int) -> bytes:
        key = self._mac_keys.get(tenant_id)
        if key is None:
            key = derive_tenant_key(self.mac_master, tenant_id)
            self._mac_keys[tenant_id] = key
        return key

    def key_runs(self,
                 addresses: Sequence[int]) -> Iterator[tuple[int, int, int]]:
        """Group a batch into maximal same-tenant runs.

        Yields ``(start, end, tenant_id)`` index spans; the batched engine
        paths issue one crypto batch per run, which is byte-identical to
        per-element keying because the primitives are per-block.
        """
        count = len(addresses)
        start = 0
        while start < count:
            tenant = self.tenant_of(addresses[start])
            end = start + 1
            while end < count and self.tenant_of(addresses[end]) == tenant:
                end += 1
            yield start, end, tenant
            start = end

    def shard_view(self, base: int, size: int) -> "TenantKeyring":
        """The keyring as one shard sees it: extents clipped to the shard's
        global window ``[base, base + size)`` and rebased to local
        coordinates.  Keys depend only on tenant ids, so a tenant spanning
        a shard boundary uses the same keys on both sides.
        """
        if base < 0 or size <= 0:
            raise ConfigError(
                f"shard window [{base:#x}, +{size:#x}) must be non-negative "
                f"and non-empty")
        clipped = []
        for extent in self.extents:
            lo = max(extent.base, base)
            hi = min(extent.end, base + size)
            if lo < hi:
                clipped.append(TenantExtent(extent.tenant_id, lo - base,
                                            hi - lo))
        return TenantKeyring(clipped, self.aes_master, self.mac_master)


class TenantKeyedAes(AesEngine):
    """Counter-mode engine resolving the AES key per data address.

    Accounting is identical to the base engine (same kinds, same counts);
    only the key under each block changes.  Addresses outside every tenant
    extent use the master key, so metadata-path users are unaffected.
    Each tenant's pad prefix state is absorbed once, on first use.
    """

    def __init__(self, stats: SimStats, keyring: TenantKeyring,
                 functional: bool = True) -> None:
        super().__init__(stats, key=keyring.aes_master, functional=functional)
        self.keyring = keyring
        self._tenant_pads: dict[int, batch.KeyedState] = {}

    def _tenant_pad(self, tenant: int) -> batch.KeyedState:
        state = self._tenant_pads.get(tenant)
        if state is None:
            state = batch.pad_state(self.keyring.aes_key(tenant))
            self._tenant_pads[tenant] = state
        return state

    def encrypt(self, address: int, counter: int,
                plaintext: bytes | None) -> bytes | None:
        """Encrypt one block under its owning tenant's key."""
        self._stats.record_aes(AesKind.ENCRYPT)
        if not self.functional or plaintext is None:
            return plaintext
        return self._crypt(self._tenant_pad(self.keyring.tenant_of(address)),
                           address, counter, plaintext)

    def decrypt(self, address: int, counter: int,
                ciphertext: bytes | None) -> bytes | None:
        """Decrypt one block under its owning tenant's key."""
        self._stats.record_aes(AesKind.DECRYPT)
        if not self.functional or ciphertext is None:
            return ciphertext
        return self._crypt(self._tenant_pad(self.keyring.tenant_of(address)),
                           address, counter, ciphertext)

    def _run_batch(self, kind: AesKind, addresses: Sequence[int],
                   counters: Sequence[int],
                   buffer: bytes | bytearray | memoryview | None
                   ) -> bytes | None:
        self._stats.record_aes(kind, len(addresses))
        if not self.functional or buffer is None:
            return None
        view = memoryview(buffer)
        parts: list[bytes] = []
        for start, end, tenant in self.keyring.key_runs(addresses):
            parts.append(batch.encrypt_blocks(
                self._tenant_pad(tenant), addresses[start:end],
                counters[start:end],
                view[start * CACHE_LINE_SIZE:end * CACHE_LINE_SIZE]))
        return b"".join(parts)

    def encrypt_batch(self, addresses: Sequence[int],
                      counters: Sequence[int],
                      plaintext: bytes | bytearray | memoryview | None,
                      frames: batch.Frames = None) -> bytes | None:
        """Batched :meth:`encrypt`: one crypto batch per same-tenant run.

        ``frames`` is accepted for interface parity but recomputed per run
        (frames are a pure function of (address, counter), so the output is
        byte-identical either way).
        """
        return self._run_batch(AesKind.ENCRYPT, addresses, counters,
                               plaintext)

    def decrypt_batch(self, addresses: Sequence[int],
                      counters: Sequence[int],
                      ciphertext: bytes | bytearray | memoryview | None,
                      frames: batch.Frames = None) -> bytes | None:
        """Batched :meth:`decrypt` (counter mode: same op as encryption)."""
        return self._run_batch(AesKind.DECRYPT, addresses, counters,
                               ciphertext)


class TenantKeyedMac(MacEngine):
    """MAC engine resolving the *block* MAC key per data address.

    Only :meth:`block_mac` / :meth:`block_mac_batch` — the shapes that carry
    a data address — are tenant-keyed.  Node and digest MACs (tree slots,
    cache-tree levels, DLM second level) stay master-keyed: the integrity
    tree spans all tenants and its content is controller metadata.  Each
    (tenant, domain) prefix state is absorbed once, on first use.
    """

    def __init__(self, stats: SimStats, keyring: TenantKeyring,
                 functional: bool = True) -> None:
        super().__init__(stats, key=keyring.mac_master, functional=functional)
        self.keyring = keyring
        self._tenant_states: dict[tuple[int, MacDomain],
                                  batch.KeyedState] = {}

    def _tenant_state(self, tenant: int,
                      domain: MacDomain) -> batch.KeyedState:
        state = self._tenant_states.get((tenant, domain))
        if state is None:
            state = batch.mac_state(self.keyring.mac_key(tenant), domain)
            self._tenant_states[(tenant, domain)] = state
        return state

    def block_mac(self, kind: MacKind, ciphertext: bytes | None,
                  address: int, counter: int,
                  domain: MacDomain | None = None) -> bytes:
        """Per-block data/CHV MAC under the owning tenant's key."""
        self._stats.record_mac(kind)
        if not self.functional or ciphertext is None:
            return _PLACEHOLDER_MAC
        return self._block_mac(
            self._tenant_state(self.keyring.tenant_of(address),
                               block_domain(kind, domain)),
            ciphertext, address, counter)

    def block_mac_batch(self, kind: MacKind,
                        buffer: bytes | bytearray | memoryview | None,
                        addresses: Sequence[int], counters: Sequence[int],
                        domain: MacDomain | None = None,
                        frames: batch.Frames = None) -> list[bytes]:
        """Batched :meth:`block_mac`: one MAC batch per same-tenant run."""
        count = len(addresses)
        self._stats.record_mac(kind, count)
        if not self.functional or buffer is None:
            return [_PLACEHOLDER_MAC] * count
        resolved = block_domain(kind, domain)
        view = memoryview(buffer)
        macs: list[bytes] = []
        for start, end, tenant in self.keyring.key_runs(addresses):
            macs.extend(batch.compute_block_macs(
                self._tenant_state(tenant, resolved),
                view[start * CACHE_LINE_SIZE:end * CACHE_LINE_SIZE],
                addresses[start:end], counters[start:end]))
        return macs


@dataclass(frozen=True)
class TenantKeySchedule:
    """The :class:`~repro.crypto.engine.KeySchedule` installing tenant keys.

    Picklable (the keyring holds only bytes and extents), so process-pool
    shard workers can rebuild identical engines from a shipped spec.
    """

    keyring: TenantKeyring

    def build(self, stats: SimStats,
              functional: bool) -> tuple[AesEngine, MacEngine]:
        """Return the tenant-keyed engine pair for one controller."""
        return (TenantKeyedAes(stats, self.keyring, functional=functional),
                TenantKeyedMac(stats, self.keyring, functional=functional))
