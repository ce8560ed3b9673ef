-- A type-A block whose value is an expression over its aggregate:
-- NEST-A evaluates the block once per execution, aggregates first and
-- applies the expression to the aggregate's value.
SELECT PNUM FROM PARTS
WHERE QOH < (SELECT MAX(QUAN) - 1 FROM SUPPLY
             WHERE SHIPDATE < '1980-01-01')
