"""Output checks for the benchmark, computed apart from the program under test.

Every function takes what the benchmark itself knows (the inputs it generated, the operations
it saw acknowledged) plus the answers the service gave, and returns a list of error strings;
an empty list means the answers are correct. Nothing here asks Kronos anything.
"""

BEFORE, AFTER, CONCURRENT = 0, 1, 2
ORDER_NAMES = {BEFORE: "BEFORE", AFTER: "AFTER", CONCURRENT: "CONCURRENT", -1: "ERROR"}

MAX_REPORTED = 5


def _note(errors, msg):
    if len(errors) < MAX_REPORTED:
        errors.append(msg)
    elif len(errors) == MAX_REPORTED:
        errors.append("... more errors omitted")


# --- reachability over a DAG's edge list ---------------------------------------------------


def descendants(num_nodes, edges):
    """Per node, the set of nodes reachable from it, over `edges` (pairs a -> b).

    Nodes are split into weakly connected components (union-find over the edge list) and each
    reach set is a Python int with one bit per member of the node's component, so the memory
    is the sum of squared component sizes, not the square of the graph. Requires a -> b edges
    to satisfy a < b (the generator numbers nodes in topological order); anything else is
    reported as an error by raising ValueError.
    """
    parent = list(range(num_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    succ = [[] for _ in range(num_nodes)]
    for a, b in edges:
        if not a < b:
            raise ValueError(f"edge {a}->{b} is not in topological order")
        succ[a].append(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = [find(x) for x in range(num_nodes)]
    local = [0] * num_nodes
    counts = {}
    for x in range(num_nodes):
        local[x] = counts.get(comp[x], 0)
        counts[comp[x]] = local[x] + 1
    reach = [0] * num_nodes
    for x in range(num_nodes - 1, -1, -1):
        r = 0
        for y in succ[x]:
            r |= reach[y] | (1 << local[y])
        reach[x] = r
    return comp, local, reach


def expected_order(graph, a, b):
    comp, local, reach = graph
    if comp[a] == comp[b]:
        if (reach[a] >> local[b]) & 1:
            return BEFORE
        if (reach[b] >> local[a]) & 1:
            return AFTER
    return CONCURRENT


def check_deep_reads(expected, answers):
    """`expected[i]` is the oracle verdict of pair i; `answers` is (pair index, verdict)."""
    errors = []
    if not answers:
        _note(errors, "no answers recorded")
    for i, v in answers:
        if not 0 <= i < len(expected):
            _note(errors, f"answer for unknown pair index {i}")
        elif v != expected[i]:
            _note(errors, f"pair {i}: got {ORDER_NAMES.get(v, v)}, "
                          f"expected {ORDER_NAMES[expected[i]]}")
    return errors


# --- chains: durable_writes and replicated -------------------------------------------------


def chain_check_pairs(lives):
    """The pairs the benchmark must have asked about: every ordered pair inside each chain's
    window of still-referenced events, and one cross-chain pair per window slot."""
    pairs = []
    for c, live in enumerate(lives):
        other = lives[(c + 1) % len(lives)]
        for i in range(len(live)):
            for j in range(i + 1, len(live)):
                pairs.append((live[i], live[j]))
            if len(lives) > 1 and i < len(other):
                pairs.append((live[i], other[i]))
    return pairs


def check_chains(chains, lives, answers, required_tags):
    """`chains[c]` lists chain c's acknowledged events in order, `lives[c]` the ones still
    referenced; `answers` is (tag, e1, e2, verdict). Every answer must match the chain
    oracle (same chain: ordered by position; different chains: concurrent), and every tag in
    `required_tags` must have answered every check pair."""
    errors = []
    pos = {}
    for c, events in enumerate(chains):
        for i, e in enumerate(events):
            if e in pos:
                _note(errors, f"event {e} acknowledged twice")
            pos[e] = (c, i)
    for c, live in enumerate(lives):
        if live != chains[c][len(chains[c]) - len(live):]:
            _note(errors, f"chain {c}: live window is not the chain's tail")
    answered = {}
    for tag, e1, e2, v in answers:
        answered.setdefault(tag, set()).add((e1, e2))
        if e1 not in pos or e2 not in pos:
            _note(errors, f"{tag}: pair ({e1}, {e2}) names an event the benchmark never created")
            continue
        (c1, i1), (c2, i2) = pos[e1], pos[e2]
        want = CONCURRENT if c1 != c2 else (BEFORE if i1 < i2 else AFTER)
        if v != want:
            _note(errors, f"{tag}: ({e1}, {e2}) got {ORDER_NAMES.get(v, v)}, "
                          f"expected {ORDER_NAMES[want]}")
    needed = set(chain_check_pairs(lives))
    for tag in required_tags:
        missing = needed - answered.get(tag, set())
        if missing:
            _note(errors, f"{tag}: {len(missing)} check pairs unanswered")
    return errors


REPLICAS = 3


def check_replicated(chains, lives, answers, replicas_in_chain):
    """The replicated workload never re-admits a replica, so all REPLICAS must still be in the
    chain at the end, and each (tags replica0..) must have answered every check pair itself."""
    errors = []
    if replicas_in_chain != REPLICAS:
        _note(errors, f"{replicas_in_chain} of {REPLICAS} replicas left in the chain")
    tags = [f"replica{i}" for i in range(REPLICAS)]
    return errors + check_chains(chains, lives, answers, tags)


# --- graph_mix -----------------------------------------------------------------------------


def check_neighbors(num_vertices, preload, acked, neighbors):
    """Final `neighbors[v]` (a set, or None if the call failed) must equal the undirected
    adjacency of the preload plus every acknowledged added edge."""
    errors = []
    adj = [set() for _ in range(num_vertices)]
    for u, v in list(preload) + list(acked):
        adj[u].add(v)
        adj[v].add(u)
    for v in range(num_vertices):
        got = neighbors.get(v)
        if got is None:
            _note(errors, f"vertex {v}: Neighbors missing or failed")
        elif got != adj[v]:
            extra = sorted(got - adj[v])[:5]
            lost = sorted(adj[v] - got)[:5]
            _note(errors, f"vertex {v}: unexpected {extra}, missing {lost}")
    return errors
