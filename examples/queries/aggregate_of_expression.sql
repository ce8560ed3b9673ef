-- An aggregate over an expression of the inner block's own columns:
-- NEST-JA2 computes the argument where it restricts and projects the
-- inner relation (TEMP2), and aggregates it per outer value (TEMP3).
SELECT PNUM FROM PARTS
WHERE QOH < (SELECT SUM(QUAN * 2) FROM SUPPLY
             WHERE SUPPLY.PNUM = PARTS.PNUM)
