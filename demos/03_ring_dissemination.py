"""Ring dissemination: plain forwarding vs degree-two combining.

Plain forwarding has every relay transmit each of the k packets once.
Degree-two combining answers both neighbors with a single XOR per round,
finishing in ceil((k-1)/2) rounds; receivers online-decode each combination
against a small rolling buffer.  A schedule names sources only: each
payload is the XOR of the sources its transmission names, so no packet
data is needed to check that recovery is bit-exact.
"""

from squadfountain import TransmissionSchedule

for k in (7, 15):
    d1 = TransmissionSchedule("degree_one", k)
    d2 = TransmissionSchedule("degree_two_combining", k)
    print(f"k = {k}")
    print(f"  plain forwarding : {d1.per_relay:3d} transmissions per relay")
    print(f"  degree-two mode  : {d2.per_relay:3d} transmissions per relay"
          f" in {d2.rounds} rounds")
    print(f"  both verified bit-exact at every relay: {d1.verify() and d2.verify()}")
    print()

print("round-by-round view of relay 1 for k = 7 (degree-two mode):")
rounds, left, right = TransmissionSchedule("degree_two_combining", 7).transmissions([1])
for r, a, b in zip(rounds, left[0], right[0]):
    combo = " xor ".join(f"p{j}" for j in sorted({a, b}))
    print(f"  round {r}: transmit {combo}")
print()
print("after round r each relay has recovered the packets r hops away on")
print("both sides; the round-3 transmission p6 xor p3 hands its neighbors")
print("their distance-4 packets in one shot")
