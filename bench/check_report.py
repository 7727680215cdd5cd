#!/usr/bin/env python3
"""Validates a bench --json report (schema rpas_bench.v1).

    python3 bench/check_report.py REPORT --bench NAME

Checks the schema and provenance, that every table has rows and every row
of a table has the table's columns as its keys, that `ok` equals the
conjunction of the named checks, and that it is true. Each bound is a
named check in the bench that computes it; this script only reads them.
Exits 1 naming the first problem.
"""
import argparse
import json
import sys

PROVENANCE = {'rpas_threads', 'hardware_threads', 'simd', 'compiler',
              'build_type', 'quick', 'seed'}


def check(report, bench):
    assert report.get('schema') == 'rpas_bench.v1', report.get('schema')
    assert report.get('bench') == bench, (report.get('bench'), bench)
    assert PROVENANCE <= report['provenance'].keys(), report['provenance']
    for table in report['tables']:
        name, columns = table['name'], table['columns']
        assert table['rows'], f'table {name} has no rows'
        for row in table['rows']:
            assert list(row) == columns, (name, row, columns)
    failed = [c['name'] for c in report['checks'] if not c['ok']]
    assert report['ok'] == (not failed), (report['ok'], failed)
    assert report['ok'], f'failed checks: {failed}'
    return (f"{bench} report OK: {len(report['tables'])} tables, "
            f"{sum(len(t['rows']) for t in report['tables'])} rows, "
            f"{len(report['checks'])} checks, "
            f"simd {report['provenance']['simd']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('report')
    parser.add_argument('--bench', required=True)
    args = parser.parse_args()
    with open(args.report) as f:
        report = json.load(f)
    try:
        print(check(report, args.bench))
    except (AssertionError, KeyError, TypeError) as e:
        sys.exit(f'{args.report}: {type(e).__name__}: {e}')


if __name__ == '__main__':
    main()
