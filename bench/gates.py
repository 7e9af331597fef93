#!/usr/bin/env python3
"""The benchmark gates: every bound the BENCH_*.json files are held to.

Run it in the directory that holds the files: the repo root checks the
committed ones, and after `cmake --build build && (cd build && ./bench_x)`
`cd build && python3 ../bench/gates.py` checks fresh ones.  It prints
value, bound and verdict of every check, then exits 1 if any failed.  A
missing file, row or counter is a failing check that names the file and
the selector.

A selector matches a row when every entry holds.  Entries test the row's
counters, its string fields (glob patterns; a leading '!' negates), its
run_name arguments (BM_X/n:512/P:4 gives n and P) and its family
`bench` (BM_X); `has` asks for counters; (op, v) compares.
"""
import glob
import json
import operator
import sys
from fnmatch import fnmatchcase

OPS = {'<=': operator.le, '<': operator.lt, '>=': operator.ge,
       '>': operator.gt, '==': operator.eq}
ALLOCS = ('allocs_per_replay_gather', 'allocs_per_replay_scatter',
          'allocs_per_replay_scatter_add')
HALO_BASE = {'has': 'ns_per_exchange', 'transport_shm': 0, 'split_phase': 0}
HALOROWS = {**HALO_BASE, 'P': 4, 'label': 'halorows/*'}
SOAK = {'has': 'plateau_ratio'}
SKEW = {'has': 'balance', 'procs': 16, 'zipf_x10': 12}


def it(bench, counter):
    return {'run_type': 'iteration', 'bench': bench, 'has': counter}


def lab(label, counter):
    return {'label': label, 'has': counter}


# Check kinds (the argument tuple each takes):
#   counter (selector, statistic, counter or tuple summed) -- 'all' rows
#     report the worst one, 'first'/'last' one row;
#   ratio   (numerator selector, denominator selector, statistic, counter)
#     -- 'min' is the fastest repetition;
#   best    (selector, group-by fields, numerator, denominator, counter):
#     the largest ratio over the groups; every group needs both rows;
#   same    (selector, group-by fields, pair field, counters): rows paired
#     on the pair field must agree; the value counts the pairs that differ;
#   rows    (selector): the number of matching rows.
# A bound of None prints the value without gating it.
# (gate, file, kind, arguments, comparison, bound)
TABLE = [
    # The loc_map access functions (for_owned/at/halo) against the same
    # sweeps on raw arrays and with the access state hoisted by hand.
    ('access', 'access', 'ratio', (it('BM_Stencil9Halo', 'ns_per_point'),
     it('BM_Stencil9Raw', 'ns_per_point'), 'min', 'ns_per_point'), '<=', 3.48),
    ('access', 'access', 'ratio', (it('BM_Stencil7Halo', 'ns_per_point'),
     it('BM_Stencil7Raw', 'ns_per_point'), 'min', 'ns_per_point'), '<=', 6.39),
    ('access', 'access', 'ratio', (it('BM_Stencil9Halo', 'ns_per_point'),
     it('BM_Stencil9Hoisted', 'ns_per_point'), 'min', 'ns_per_point'), '<=', 1.5),
    # apps::tridiag against the division form it replaced.
    ('adi', 'adi', 'ratio', (it('BM_Tridiag', 'ns_per_element'),
     it('BM_TridiagDivide', 'ns_per_element'), 'min', 'ns_per_element'),
     '<=', 0.75),
    # Warm executor replays allocate nothing and beat rebuilding, watchdog
    # armed or not.  Section runs keep the gather-lines binding and the
    # BLOCK -> CYCLIC(1) plans at a tenth of their per-element size;
    # random points do not fold (1.1x their per-element offsets).
    *[('executor', 'parti', 'counter', ({'has': k}, 'all', k), '==', 0)
      for k in ALLOCS],
    ('executor', 'parti', 'counter', ({'label': 'executor/row_gather'},
     'first', ALLOCS), '==', 0),
    ('executor', 'parti', 'counter', ({'label': 'executor/row_gather'},
     'first', 'footprint_bytes'), '<=', 524432 / 10),
    ('executor', 'parti', 'counter', ({'label': 'executor/warm'}, 'first',
     'footprint_bytes'), '<=', 1.1 * 32110),
    ('executor', 'redistribute', 'counter', ({'label': 'flip_block_cyclic1/cached',
     'n': 16384}, 'first', 'plan_footprint_bytes'), '<=', 131696 / 10),
    ('executor', 'pic', 'counter', ({'label': 'pic_flip/cached'}, 'last',
     'allocs_per_replay_redist'), '==', 0),
    ('executor', 'pic', 'counter', ({'label': 'pic_flip/cached'}, 'all',
     'redist_plan_hits'), '>', 0),
    *[('executor', 'parti', 'counter', ({'has': ('ns_per_call', k)}, 'all', k),
       '==', 0)
      for k in ('fence_trips', 'faults_injected')],
    ('executor', 'parti', 'ratio', (lab('executor/cold', 'ns_per_call'),
     lab('executor/warm', 'ns_per_call'), 'last', 'ns_per_call'), '>=', 1.5),
    ('executor', 'parti', 'ratio', (lab('executor/cold', 'ns_per_call'),
     lab('executor/warm_wd', 'ns_per_call'), 'last', 'ns_per_call'), '>=', 1.5),
    # Cached DISTRIBUTE flips miss only on the warmup round trip's two
    # builds, hit on each of the 10 timed flips, and beat the cold path.
    *[('plan-cache', 'redistribute', 'counter', (lab(f'{p}/cached',
       'ns_per_flip'), 'first', k), '==', v)
      for p in ('flip_block_cyclic1', 'flip_indirect')
      for k, v in (('redist_plan_misses', 2), ('redist_plan_hits', 10))],
    ('plan-cache', 'redistribute', 'ratio', (lab('flip_block_cyclic1/cold',
     'ns_per_flip'), lab('flip_block_cyclic1/cached', 'ns_per_flip'), 'first',
     'ns_per_flip'), '>=', 2.0),
    ('plan-cache', 'redistribute', 'ratio', (lab('flip_indirect/cold',
     'ns_per_flip'), lab('flip_indirect/cached', 'ns_per_flip'), 'first',
     'ns_per_flip'), '>=', 1.5),
    ('plan-cache', 'redistribute', 'counter', (lab('flip_indirect/cached',
     'ns_per_flip'), 'first', 'registry_hit_rate'), '>=', 0.5),
    # Cached halo exchanges beat cold ones, also with the watchdog or the
    # lockstep checker armed.  Gated on halorows (best size), whose plan
    # construction share is large and stable; halo9 is message-bound and
    # jitters, so it is printed only.  Healthy runs never trip the fence.
    *[('halo', 'halo', 'counter', ({'has': 'ns_per_exchange'}, 'all', k),
       '==', 0)
      for k in ('fence_trips', 'faults_injected', 'lockstep_mismatches')],
    ('halo', 'halo', 'rows', ({**HALO_BASE, 'label': '!*/mailbox/blocking'},),
     '==', 0),
    ('halo', 'halo', 'best', ({**HALO_BASE, 'P': 4, 'label': 'halo9/*'}, ('n',),
     {'label': 'halo9/cold/*'}, {'label': 'halo9/cached/mailbox/*'},
     'ns_per_exchange'), None, None),
    *[('halo', 'halo', 'best', (HALOROWS, ('n',), {'label': 'halorows/cold/*'},
       {'label': f'halorows/cached{mode}/mailbox/*'}, 'ns_per_exchange'),
       '>=', 1.5)
      for mode in ('', '/wd', '/lock')],
    ('halo', 'halo', 'counter', ({'has': 'ns_per_exchange',
     'label': '*/cached*'}, 'all', 'halo_plan_hit_rate'), '>=', 0.9),
    ('halo', 'halo', 'counter', ({'has': 'allocs_per_exchange'}, 'all',
     'allocs_per_exchange'), '==', 0),
    # Shared memory moves exactly the mailbox's accounted traffic.
    *[('transport', 'halo', 'same', ({'has': 'ns_per_exchange',
       'plan_cached': ('>', 0), **split}, ('shape', 'n', 'P', 'split_phase'),
       'transport_shm', ('data_bytes_per_exchange', 'data_msgs_per_exchange')),
       '==', 0)
      for split in ({}, {'split_phase': 1})],
    # Split-phase smoothing (interior update while the exchange is in
    # flight) beats the blocking schedule on shm at P >= 16 (MIN_CPUS).
    ('smoothing', 'smoothing', 'best', ({'has': 'ns_per_step', 'P': ('>=', 16),
     'stencil': 1, 'transport_shm': 1}, ('N', 'P'), {'split_phase': 0},
     {'split_phase': 1}, 'ns_per_step'), '>=', 1.2),
    # Family-keyed asymmetric halo plans amortize like uniform ones, with
    # one spec-exchange collective per rank (per declaration, never per
    # exchange).
    ('amrfront', 'amrfront', 'counter', ({'has': 'ns_per_exchange'}, 'all',
     'spec_exchanges_per_rank'), '==', 1),
    ('amrfront', 'amrfront', 'best', ({'has': 'ns_per_exchange',
     'label': 'amrgrid/*'}, ('n',), {'label': '*/cold'}, {'label': '*/cached'},
     'ns_per_exchange'), None, None),
    ('amrfront', 'amrfront', 'best', ({'has': 'ns_per_exchange',
     'label': 'amrrows/*'}, ('n',), {'label': '*/cold'}, {'label': '*/cached'},
     'ns_per_exchange'), '>=', 1.5),
    ('amrfront', 'amrfront', 'counter', ({'has': 'ns_per_exchange',
     'label': '*/cached'}, 'all', 'halo_plan_hit_rate'), '>=', 0.9),
    ('amrfront', 'amrfront', 'counter', ({'has': 'allocs_per_exchange'}, 'all',
     'allocs_per_exchange'), '==', 0),
    # Hybrid (PRPD) plans at P = 16, Zipf s = 1.2 at least halve the
    # baseline's traffic balance and replay no slower (1.05 for runner
    # noise); uniform rows never take the hybrid path.
    ('skew', 'skew', 'counter', ({'has': 'balance'}, 'all',
     'allocs_per_replay_redist'), '==', 0),
    ('skew', 'skew', 'counter', ({'has': 'balance', 'zipf_x10': 0}, 'all',
     'hybrid_flips'), '==', 0),
    ('skew', 'skew', 'counter', ({**SKEW, 'hybrid': 1}, 'last',
     'hybrid_flips'), '>', 0),
    ('skew', 'skew', 'counter', ({**SKEW, 'hybrid': 1}, 'last',
     'redist_plan_hits'), '>', 0),
    *[('skew', 'skew', 'ratio', ({**SKEW, 'hybrid': 1}, {**SKEW, 'hybrid': 0},
       'last', k), '<=', bound)
      for k, bound in (('balance', 0.5), ('ns_per_flip', 1.05))],
    # Resident bytes plateau over 10^4 churn steps and the budgets do work.
    # The soak changes both halves of the halo-plan key almost every step,
    # so ~0.14 is the structural hit-rate ceiling; 0.1 guards thrash.
    ('soak', 'soak', 'counter', (SOAK, 'all', 'plateau_ratio'), '<=', 1.25),
    ('soak', 'soak', 'counter', (SOAK, 'all', 'slope_bytes_per_step'), '<', 32.0),
    ('soak', 'soak', 'counter', (SOAK, 'all', ('halo_evictions',
     'plan_evictions')), '>', 0),
    ('soak', 'soak', 'counter', (SOAK, 'all', 'registry_swept'), '>', 0),
    ('soak', 'soak', 'counter', (SOAK, 'all', 'halo_plan_hit_rate'), '>=', 0.1),
]
# Gates enforced only when the file's host had this many CPUs: on fewer,
# the scheduler already overlaps one rank's wait with another's compute.
MIN_CPUS = {'smoothing': 4}


class Missing(Exception):
    pass


def number(s):
    for kind in (int, float):
        try:
            return kind(s)
        except ValueError:
            pass
    return s


def load(path):
    doc = json.load(open(path))
    for b in doc['benchmarks']:
        parts = b.get('run_name', b['name']).split('/')[1:]
        args = dict(p.split(':', 1) for p in parts if ':' in p)
        b.update({k: number(v) for k, v in args.items() if k not in b},
                 bench=b['name'].split('/')[0])
    return doc


def match(row, sel):
    for k, want in sel.items():
        if k == 'has':
            ok = all(c in row for c in (want if isinstance(want, tuple)
                                        else (want,)))
        elif isinstance(want, tuple):
            ok = OPS[want[0]](row.get(k, 0), want[1])
        elif isinstance(want, str):
            neg = want.startswith('!')
            ok = fnmatchcase(str(row.get(k, '')), want[neg:]) != neg
        else:
            ok = row.get(k, 0) == want
        if not ok:
            return False
    return True


def show(sel):
    return '[' + ' '.join(f'{k}={v}' for k, v in sel.items()) + ']'


def value(row, key):
    for k in key if isinstance(key, tuple) else (key,):
        if k not in row:
            raise Missing(f'{row["name"]}: no counter {k}')
    return sum(row[k] for k in key) if isinstance(key, tuple) else row[key]


def select(rows, sel, stat='all'):
    hit = [r for r in rows if match(r, sel)]
    if not hit:
        raise Missing(f'no row {show(sel)}')
    return {'first': hit[:1], 'last': hit[-1:]}.get(stat, hit)


def grouped(rows, sel, fields, side):
    """sel's rows grouped on `fields`, keyed in each group by side(row);
    a later row replaces an earlier one with the same keys."""
    groups = {}
    for r in select(rows, sel):
        k = side(r)
        if k is not None:
            groups.setdefault(tuple(r.get(f) for f in fields), {})[k] = r
    return groups


def ratio(num, den):
    return num / den if den else float('nan')


def counter(rows, op, bound, sel, stat, key):
    vals = [value(r, key) for r in select(rows, sel, stat)]
    bad = [v for v in vals if not OPS[op](v, bound)]
    pick = {'<=': max, '<': max, '>=': min, '>': min}.get(op, lambda v: v[0])
    return f'{stat} {key} {show(sel)}', pick(bad or vals)


def ratio_of(rows, op, bound, num, den, stat, key):
    n, d = (min(value(r, key) for r in select(rows, s, stat))
            for s in (num, den))
    return f'{stat} {key} {show(num)} / {show(den)}', ratio(n, d)


def best(rows, op, bound, sel, fields, num, den, key):
    groups = grouped(rows, sel, fields, lambda r: 'num' if match(r, num)
                     else 'den' if match(r, den) else None)
    for g, pair in groups.items():
        for side, s in (('num', num), ('den', den)):
            if side not in pair:
                raise Missing(f'{fields}={g}: no row {show(s)} in {show(sel)}')
    v = max(ratio(value(p['num'], key), value(p['den'], key))
            for p in groups.values())
    return f'best {key} {show(num)} / {show(den)} by {fields} {show(sel)}', v


def same(rows, op, bound, sel, fields, pair, keys):
    groups = grouped(rows, sel, fields, lambda r: r.get(pair, 0))
    pairs = [list(g.values()) for g in groups.values() if len(g) == 2]
    if not pairs:
        raise Missing(f'no {pair} pair {show(sel)}')
    differ = sum(any(value(x, k) != value(y, k) for k in keys)
                 for x, y in pairs)
    return f'{pair} pairs differing in {"/".join(keys)} {show(sel)}', differ


def count(rows, op, bound, sel):
    return f'rows {show(sel)}', sum(match(r, sel) for r in rows)


KINDS = {'counter': counter, 'ratio': ratio_of, 'best': best, 'same': same,
         'rows': count}


def main():
    docs = {p[len('BENCH_'):-len('.json')]: load(p)
            for p in glob.glob('BENCH_*.json')}
    failed = []
    for gate, name, kind, args, op, bound in TABLE:
        where = f'BENCH_{name}.json'
        try:
            if name not in docs:
                raise Missing('no such file')
            what, v = KINDS[kind](docs[name]['benchmarks'], op, bound, *args)
            line = f'{what}: {v:.6g}' + (f' {op} {bound:.6g}' if op else '')
            ok = op is None or OPS[op](v, bound)
            verdict = 'INFO' if op is None else 'PASS' if ok else 'FAIL'
            if not ok and gate in MIN_CPUS:
                cpus = docs[name]['context'].get('num_cpus')
                if cpus is None:
                    raise Missing('no num_cpus in the context')
                if cpus < MIN_CPUS[gate]:
                    verdict = 'SKIP'
                    line += f' (not enforced: file from a {cpus}-CPU host)'
        except Missing as e:
            verdict, line = 'FAIL', f'missing: {e}'
        if verdict == 'FAIL':
            failed.append(gate)
        print(f'{verdict} {gate:10} {where} {line}')
    print(f'{len(TABLE) - len(failed)} of {len(TABLE)} checks hold'
          + (f'; failing gates: {", ".join(dict.fromkeys(failed))}'
             if failed else ''))
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
