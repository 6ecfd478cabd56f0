"""Unit tests for the image repository and virtual networks."""

import ipaddress

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud import (
    DiskImage,
    ImageError,
    ImageRepository,
    NetworkError,
    NetworkFabric,
    VirtualNetwork,
)


# ---------------------------------------------------------------------------
# Images
# ---------------------------------------------------------------------------

def test_disk_image_validation():
    with pytest.raises(ValueError):
        DiskImage("img", "href", size_mb=0)
    with pytest.raises(ValueError):
        DiskImage("", "href", size_mb=10)


def test_repository_register_and_get():
    repo = ImageRepository()
    img = repo.add("condor-exec", size_mb=2048)
    assert repo.get("condor-exec") is img
    assert "condor-exec" in repo
    assert len(repo) == 1
    assert img.href.endswith("/condor-exec")


def test_repository_duplicate_rejected():
    repo = ImageRepository()
    repo.add("a", size_mb=10)
    with pytest.raises(ImageError):
        repo.add("a", size_mb=10)


def test_repository_unknown_image():
    repo = ImageRepository()
    with pytest.raises(ImageError):
        repo.get("nope")
    with pytest.raises(ImageError):
        repo.resolve_href("http://nowhere")


def test_repository_resolve_href():
    repo = ImageRepository()
    img = repo.add("a", size_mb=10, href="http://sm/images/a.img")
    assert repo.resolve_href("http://sm/images/a.img") is img


def test_transfer_time_scales_with_size_and_bandwidth():
    repo = ImageRepository(bandwidth_mb_per_s=50)
    repo.add("big", size_mb=1000)
    assert repo.transfer_time("big") == pytest.approx(20.0)


def test_record_transfer_accounts_bytes():
    repo = ImageRepository(bandwidth_mb_per_s=100)
    repo.add("img", size_mb=500)
    d1 = repo.record_transfer("img")
    d2 = repo.record_transfer("img")
    assert d1 == d2 == pytest.approx(5.0)
    assert repo.bytes_served_mb == 1000


def test_customisation_disks_unique_ids():
    repo = ImageRepository()
    d1 = repo.make_customisation_disk({"ip": "10.0.0.2"})
    d2 = repo.make_customisation_disk({"ip": "10.0.0.3"})
    assert d1.disk_id != d2.disk_id
    assert d1.properties == {"ip": "10.0.0.2"}


def test_bad_bandwidth_rejected():
    with pytest.raises(ValueError):
        ImageRepository(bandwidth_mb_per_s=0)


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------

def test_network_allocates_sequential_addresses():
    net = VirtualNetwork("internal", "192.168.1.0/29")
    # /29 → 6 host addrs, .1 is the gateway → 5 allocatable.
    a = net.allocate("vm1")
    b = net.allocate("vm2")
    assert a == "192.168.1.2"
    assert b == "192.168.1.3"
    assert net.gateway == "192.168.1.1"
    assert net.allocated == 2


def test_network_release_and_reuse_lowest_first():
    net = VirtualNetwork("n", "10.0.0.0/28")
    a = net.allocate("vm1")
    b = net.allocate("vm2")
    net.release(a)
    c = net.allocate("vm3")
    assert c == a  # lowest free address is recycled
    assert net.owner_of(b) == "vm2"
    assert net.owner_of(c) == "vm3"


def test_network_pool_exhaustion():
    net = VirtualNetwork("tiny", "10.0.0.0/30")  # 2 hosts, 1 after gateway
    net.allocate("vm1")
    with pytest.raises(NetworkError):
        net.allocate("vm2")


def test_network_slash30_slash31_slash32_edges():
    # /30: two hosts, .1 is the gateway, one address to lease.
    net = VirtualNetwork("p2p", "10.0.0.0/30")
    assert (net.gateway, net.capacity) == ("10.0.0.1", 1)
    assert net.allocate("vm1") == "10.0.0.2"
    with pytest.raises(NetworkError):
        net.allocate("vm2")
    net.release("10.0.0.2")
    assert net.allocate("vm2") == "10.0.0.2"
    # /31 (RFC 3021): both addresses are hosts; the first is the gateway.
    net = VirtualNetwork("link", "10.0.0.0/31")
    assert (net.gateway, net.capacity) == ("10.0.0.0", 1)
    assert net.allocate("vm1") == "10.0.0.1"
    with pytest.raises(NetworkError):
        net.allocate("vm2")
    # /32: the single address is the gateway; nothing to lease.
    net = VirtualNetwork("host", "10.0.0.7/32")
    assert (net.gateway, net.capacity) == ("10.0.0.7", 0)
    with pytest.raises(NetworkError):
        net.allocate("vm1")


def test_network_ipv6_addresses_keep_their_family():
    net = VirtualNetwork("v6", "::/125")
    assert net.gateway == "::1"
    assert [net.allocate("vm") for _ in range(2)] == ["::2", "::3"]
    net.release("::2")
    assert net.allocate("vm") == "::2"


class SortedListPool:
    """Reference address pool: a sorted list of strings, re-sorted by
    address on every release (the allocator's original algorithm)."""

    def __init__(self, cidr):
        hosts = list(ipaddress.ip_network(cidr).hosts())
        self.free = [str(h) for h in hosts[1:]]
        self.leases = {}

    def allocate(self, owner):
        if not self.free:
            return None
        address = self.free.pop(0)
        self.leases[address] = owner
        return address

    def release(self, address):
        if self.leases.pop(address, None) is None:
            return False
        self.free.append(address)
        self.free.sort(key=ipaddress.ip_address)
        return True


@settings(max_examples=150, deadline=None)
@given(cidr=st.sampled_from(["10.0.0.0/30", "10.0.0.0/31", "10.0.0.0/32",
                             "192.168.1.0/29", "10.0.0.0/27", "::/125",
                             "fd00::/123"]),
       ops=st.lists(st.one_of(
           st.tuples(st.just("allocate"), st.integers(0, 3)),
           st.tuples(st.just("release"), st.integers(0, 63)),
           st.tuples(st.just("release-any"), st.integers(0, 40)),
       ), max_size=120))
def test_network_pool_matches_sorted_list_reference(cidr, ops):
    """Allocate/release interleavings, releases in any order: the same
    addresses as the sorted-list reference, the same counters and owners,
    and NetworkError on exhaustion and on releasing an unleased address
    (a double release included)."""
    net = VirtualNetwork("n", cidr)
    ref = SortedListPool(cidr)
    hosts = [str(h) for h in ipaddress.ip_network(cidr).hosts()]
    capacity = max(len(hosts) - 1, 0)
    released = []
    for kind, arg in ops:
        if kind == "allocate":
            want = ref.allocate(f"vm{arg}")
            if want is None:
                with pytest.raises(NetworkError):
                    net.allocate(f"vm{arg}")
            else:
                assert net.allocate(f"vm{arg}") == want
        else:
            if kind == "release":
                leased = sorted(ref.leases)
                if not leased:
                    continue
                address = leased[arg % len(leased)]
            else:
                # Any host address, or one released before: double release.
                pool = hosts + released
                address = pool[arg % len(pool)]
            if ref.release(address):
                net.release(address)
                released.append(address)
            else:
                with pytest.raises(NetworkError):
                    net.release(address)
        assert net.capacity == capacity
        assert net.allocated == len(ref.leases)
        for address in hosts:
            assert net.owner_of(address) == ref.leases.get(address)
            assert (address in net) == (address in ref.leases)


def test_network_release_unknown_raises():
    net = VirtualNetwork("n", "10.0.0.0/29")
    with pytest.raises(NetworkError):
        net.release("10.0.0.2")


def test_network_addresses_of_owner():
    net = VirtualNetwork("n", "10.0.0.0/28")
    a = net.allocate("vm1")
    b = net.allocate("vm1")
    net.allocate("vm2")
    assert sorted(net.addresses_of("vm1")) == sorted([a, b])


def test_network_bad_cidr():
    with pytest.raises(NetworkError):
        VirtualNetwork("n", "not-a-cidr")
    with pytest.raises(NetworkError):
        VirtualNetwork("", "10.0.0.0/24")


def test_fabric_create_get_ensure():
    fabric = NetworkFabric()
    net = fabric.create("internal", "10.1.0.0/24")
    assert fabric.get("internal") is net
    assert fabric.ensure("internal") is net
    assert fabric.ensure("other") is not net
    assert "internal" in fabric
    with pytest.raises(NetworkError):
        fabric.create("internal")
    with pytest.raises(NetworkError):
        fabric.get("missing")


def test_fabric_release_all_owner():
    fabric = NetworkFabric()
    n1 = fabric.create("a", "10.1.0.0/28")
    n2 = fabric.create("b", "10.2.0.0/28")
    n1.allocate("vm1")
    n2.allocate("vm1")
    n2.allocate("vm2")
    released = fabric.release_all("vm1")
    assert released == 2
    assert n1.allocated == 0
    assert n2.allocated == 1


def test_public_flag():
    net = VirtualNetwork("dmz", public=True)
    assert net.public
    assert not VirtualNetwork("internal").public
