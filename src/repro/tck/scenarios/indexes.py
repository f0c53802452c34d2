"""Index-backed predicate scenarios: the semantics must not move.

Every scenario here declares a property index *before* its setup writes
run, so (a) the incremental maintenance path builds the index entry by
entry — creates, SETs, REMOVEs, label changes, deletes — and (b) the
planner's cost model picks the index access path wherever it wins.  The
TCK runner then executes each scenario on the interpreter (which never
looks at an index), the auto/batch path and the forced row path: any
divergence means the access path changed semantics.  Range conjuncts a
single-key range scan answers, and ``IS NOT NULL`` on an index key,
never reach a residual Filter — the scan's answer must be exact on its
own — so the range scenarios also witness that exactness contract.

The nasty corners the paper's three-valued logic creates are all pinned:
``= null`` matches nothing (not even null-valued properties), a missing
property satisfies neither equality nor any range, range predicates
only ever see the bound's own type segment (numbers with numbers,
strings with strings, booleans with booleans — everything else is
``null`` and filtered), and NaN equals nothing including itself.
"""

FEATURE = """
Feature: Index-backed predicates

  Scenario: equality seek finds exactly the matching nodes
    Given an empty graph
    And an index on :Person(age)
    And having executed:
      '''
      UNWIND [23, 42, 42, 77] AS a CREATE (:Person {age: a})
      '''
    When executing query:
      '''
      MATCH (p:Person) WHERE p.age = 42 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 2 |

  Scenario: equality against null matches nothing, null property included
    Given an empty graph
    And an index on :Person(age)
    And having executed:
      '''
      CREATE (:Person {age: 42}), (:Person {name: 'ageless'})
      '''
    When executing query:
      '''
      MATCH (p:Person) WHERE p.age = null RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 0 |

  Scenario: missing property fails equality but not the label scan
    Given an empty graph
    And an index on :Person(age)
    And having executed:
      '''
      CREATE (:Person {age: 1}), (:Person), (:Person {age: 2})
      '''
    When executing query:
      '''
      MATCH (p:Person) WHERE p.age = 1 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 1 |

  Scenario: IS NULL stays a label scan and sees the index-invisible node
    Given an empty graph
    And an index on :Person(age)
    And having executed:
      '''
      CREATE (:Person {age: 1}), (:Person), (:Person {age: 2})
      '''
    When executing query:
      '''
      MATCH (p:Person) WHERE p.age IS NULL RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 1 |

  Scenario: integers and floats share index buckets like they share equality
    Given an empty graph
    And an index on :N(v)
    And having executed:
      '''
      CREATE (:N {v: 1}), (:N {v: 1.0}), (:N {v: 1.5})
      '''
    When executing query:
      '''
      MATCH (n:N) WHERE n.v = 1 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 2 |

  Scenario: range over mixed-type values only sees the bound's segment
    Given an empty graph
    And an index on :V(x)
    And having executed:
      '''
      CREATE (:V {x: 1}), (:V {x: 10}), (:V {x: 'apple'}),
             (:V {x: 'banana'}), (:V {x: true}), (:V {x: false}),
             (:V {x: [5]})
      '''
    When executing query:
      '''
      MATCH (v:V) WHERE v.x > 2 RETURN v.x AS x
      '''
    Then the result should be, in any order:
      | x |
      | 10 |

  Scenario: string range ignores numbers and booleans
    Given an empty graph
    And an index on :V(x)
    And having executed:
      '''
      CREATE (:V {x: 1}), (:V {x: 'apple'}), (:V {x: 'banana'}),
             (:V {x: 'cherry'}), (:V {x: true})
      '''
    When executing query:
      '''
      MATCH (v:V) WHERE v.x >= 'b' RETURN v.x AS x ORDER BY x
      '''
    Then the result should be, in order:
      | x |
      | 'banana' |
      | 'cherry' |

  Scenario: boolean range orders false before true
    Given an empty graph
    And an index on :V(x)
    And having executed:
      '''
      CREATE (:V {x: true}), (:V {x: false}), (:V {x: 1}), (:V {x: 'a'})
      '''
    When executing query:
      '''
      MATCH (v:V) WHERE v.x > false RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 1 |

  Scenario: closed range keeps both bounds and both exclusivities
    Given an empty graph
    And an index on :N(v)
    And having executed:
      '''
      UNWIND range(1, 10) AS i CREATE (:N {v: i})
      '''
    When executing query:
      '''
      MATCH (n:N) WHERE n.v >= 3 AND n.v < 7 RETURN n.v AS v ORDER BY v
      '''
    Then the result should be, in order:
      | v |
      | 3 |
      | 4 |
      | 5 |
      | 6 |

  Scenario: an exclusive lower bound drops the bound, integer and float alike
    Given an empty graph
    And an index on :N(v)
    And having executed:
      '''
      CREATE (:N {v: 2}), (:N {v: 2.0}), (:N {v: 2.5}), (:N {v: 3}),
             (:N {v: '3'}), (:N)
      '''
    When executing query:
      '''
      MATCH (n:N) WHERE n.v > 2 RETURN n.v AS v ORDER BY v
      '''
    Then the result should be, in order:
      | v |
      | 2.5 |
      | 3 |

  Scenario: IS NOT NULL on an index key sees exactly the indexed nodes
    Given an empty graph
    And an index on :P(age)
    And having executed:
      '''
      CREATE (:P {age: 1}), (:P {age: 'one'}), (:P {age: [1]}), (:P),
             (:P {name: 'ageless'}), (:Q {age: 2})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.age IS NOT NULL RETURN p.age AS a ORDER BY a
      '''
    Then the result should be, in order:
      | a |
      | [1] |
      | 'one' |
      | 1 |

  Scenario: IN probes each element once, duplicates and nulls included
    Given an empty graph
    And an index on :N(v)
    And having executed:
      '''
      UNWIND [1, 2, 3, 4] AS i CREATE (:N {v: i})
      '''
    When executing query:
      '''
      MATCH (n:N) WHERE n.v IN [2, 2, null, 9, 3] RETURN n.v AS v ORDER BY v
      '''
    Then the result should be, in order:
      | v |
      | 2 |
      | 3 |

  Scenario: STARTS WITH only ever matches strings
    Given an empty graph
    And an index on :P(name)
    And having executed:
      '''
      CREATE (:P {name: 'ada'}), (:P {name: 'adele'}), (:P {name: 'bob'}),
             (:P {name: 7})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.name STARTS WITH 'ad' RETURN p.name AS n ORDER BY n
      '''
    Then the result should be, in order:
      | n |
      | 'ada' |
      | 'adele' |

  Scenario: the index tracks SET, REMOVE and DELETE in the same statement run
    Given an empty graph
    And an index on :K(k)
    And having executed:
      '''
      UNWIND range(1, 5) AS i CREATE (:K {k: i})
      '''
    And having executed:
      '''
      MATCH (n:K) WHERE n.k = 2 SET n.k = 20
      '''
    And having executed:
      '''
      MATCH (n:K) WHERE n.k = 3 REMOVE n.k
      '''
    And having executed:
      '''
      MATCH (n:K) WHERE n.k = 4 DELETE n
      '''
    When executing query:
      '''
      MATCH (n:K) WHERE n.k >= 2 RETURN n.k AS k ORDER BY k
      '''
    Then the result should be, in order:
      | k |
      | 5 |
      | 20 |

  Scenario: label changes move nodes in and out of the index
    Given an empty graph
    And an index on :Hot(v)
    And having executed:
      '''
      CREATE (:Hot {v: 1}), (:Cold {v: 1}), (:Hot {v: 2})
      '''
    And having executed:
      '''
      MATCH (n:Cold) SET n:Hot
      '''
    And having executed:
      '''
      MATCH (n:Hot) WHERE n.v = 2 REMOVE n:Hot
      '''
    When executing query:
      '''
      MATCH (n:Hot) WHERE n.v = 1 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 2 |

  Scenario: MERGE upserts observe index-maintained state mid-statement
    Given an empty graph
    And an index on :K(k)
    And having executed:
      '''
      UNWIND [1, 2] AS i CREATE (:K {k: i})
      '''
    When executing query:
      '''
      UNWIND [1, 2, 3, 3] AS i MERGE (n:K {k: i}) RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 4 |

  Scenario: probe over an outer binding is an index nested-loop join
    Given an empty graph
    And an index on :B(v)
    And having executed:
      '''
      UNWIND range(1, 3) AS i CREATE (:A {v: i}), (:B {v: i}), (:B {v: i})
      '''
    When executing query:
      '''
      MATCH (a:A) MATCH (b:B) WHERE b.v = a.v RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 6 |

  Scenario: NaN equals nothing, not even itself
    Given an empty graph
    And an index on :N(v)
    And having executed:
      '''
      CREATE (:N {v: 0.0}), (:N {v: 1.0})
      '''
    And having executed:
      '''
      MATCH (n:N) WHERE n.v = 0.0 SET n.v = 0.0 / 0.0
      '''
    When executing query:
      '''
      MATCH (n:N) WHERE n.v = 0.0 / 0.0 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 0 |

  Scenario: composite equality seek matches the full key tuple
    Given an empty graph
    And an index on :P(a, b)
    And having executed:
      '''
      UNWIND [[1, 1], [1, 2], [2, 1], [1, 2]] AS row
      CREATE (:P {a: row[0], b: row[1]})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.a = 1 AND p.b = 2 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 2 |

  Scenario: a node missing one composite column has no index entry but keeps its label
    Given an empty graph
    And an index on :P(a, b)
    And having executed:
      '''
      CREATE (:P {a: 1, b: 1}), (:P {a: 1}), (:P {b: 1}), (:P)
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.a = 1 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 2 |

  Scenario: the missing-column node fails full-tuple equality
    Given an empty graph
    And an index on :P(a, b)
    And having executed:
      '''
      CREATE (:P {a: 1, b: 1}), (:P {a: 1}), (:P {b: 1})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.a = 1 AND p.b = 1 RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 1 |

  Scenario: IS NULL on the second column sees exactly the index-invisible node
    Given an empty graph
    And an index on :P(a, b)
    And having executed:
      '''
      CREATE (:P {a: 1, b: 1}), (:P {a: 1}), (:P {b: 1})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.a = 1 AND p.b IS NULL RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 1 |

  Scenario: composite equality against null matches nothing
    Given an empty graph
    And an index on :P(a, b)
    And having executed:
      '''
      CREATE (:P {a: 1, b: 1}), (:P {a: 1})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.a = 1 AND p.b = null RETURN count(*) AS c
      '''
    Then the result should be, in any order:
      | c |
      | 0 |

  Scenario: prefix equality plus a range on the next column
    Given an empty graph
    And an index on :N(g, v)
    And having executed:
      '''
      UNWIND [1, 2] AS g UNWIND range(1, 5) AS v CREATE (:N {g: g, v: v})
      '''
    When executing query:
      '''
      MATCH (n:N) WHERE n.g = 1 AND n.v >= 2 AND n.v < 5
      RETURN n.v AS v ORDER BY v
      '''
    Then the result should be, in order:
      | v |
      | 2 |
      | 3 |
      | 4 |

  Scenario: prefix equality plus STARTS WITH only ever matches strings
    Given an empty graph
    And an index on :P(g, name)
    And having executed:
      '''
      CREATE (:P {g: 1, name: 'ada'}), (:P {g: 1, name: 'adele'}),
             (:P {g: 1, name: 'bob'}), (:P {g: 2, name: 'ada'}),
             (:P {g: 1, name: 7})
      '''
    When executing query:
      '''
      MATCH (p:P) WHERE p.g = 1 AND p.name STARTS WITH 'ad'
      RETURN p.name AS n ORDER BY n
      '''
    Then the result should be, in order:
      | n |
      | 'ada' |
      | 'adele' |

  Scenario: index-provided order is exact across ties and mixed-type segments
    Given an empty graph
    And an index on :M(g, v)
    And having executed:
      '''
      CREATE (:M {g: 1, v: 'b'}), (:M {g: 1, v: 1}), (:M {g: 1, v: true}),
             (:M {g: 1, v: 'a'}), (:M {g: 1, v: 2}), (:M {g: 1, v: 1}),
             (:M {g: 2, v: 0})
      '''
    When executing query:
      '''
      MATCH (m:M) WHERE m.g = 1 AND m.v IS NOT NULL
      RETURN m.v AS v ORDER BY v
      '''
    Then the result should be, in order:
      | v |
      | 'a' |
      | 'b' |
      | true |
      | 1 |
      | 1 |
      | 2 |

  Scenario: index-provided order descends too
    Given an empty graph
    And an index on :M(g, v)
    And having executed:
      '''
      CREATE (:M {g: 1, v: 'b'}), (:M {g: 1, v: 1}), (:M {g: 1, v: true}),
             (:M {g: 1, v: 'a'}), (:M {g: 1, v: 2}), (:M {g: 1, v: 1}),
             (:M {g: 2, v: 0})
      '''
    When executing query:
      '''
      MATCH (m:M) WHERE m.g = 1 AND m.v IS NOT NULL
      RETURN m.v AS v ORDER BY v DESC
      '''
    Then the result should be, in order:
      | v |
      | 2 |
      | 1 |
      | 1 |
      | true |
      | 'b' |
      | 'a' |

  Scenario: index-provided order honours LIMIT
    Given an empty graph
    And an index on :M(g, v)
    And having executed:
      '''
      UNWIND range(1, 9) AS i CREATE (:M {g: i % 2, v: i})
      '''
    When executing query:
      '''
      MATCH (m:M) WHERE m.g = 1 AND m.v IS NOT NULL
      RETURN m.v AS v ORDER BY v LIMIT 2
      '''
    Then the result should be, in order:
      | v |
      | 1 |
      | 3 |

  Scenario: the composite index tracks SET and REMOVE on either column
    Given an empty graph
    And an index on :K(a, b)
    And having executed:
      '''
      UNWIND range(1, 4) AS i CREATE (:K {a: 1, b: i})
      '''
    And having executed:
      '''
      MATCH (n:K) WHERE n.a = 1 AND n.b = 2 SET n.b = 20
      '''
    And having executed:
      '''
      MATCH (n:K) WHERE n.a = 1 AND n.b = 3 REMOVE n.a
      '''
    When executing query:
      '''
      MATCH (n:K) WHERE n.a = 1 AND n.b >= 2 RETURN n.b AS b ORDER BY b
      '''
    Then the result should be, in order:
      | b |
      | 4 |
      | 20 |
"""
