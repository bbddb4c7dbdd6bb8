CREATE TABLE Customer (
    cid INTEGER,
    name VARCHAR(255),
    email VARCHAR(255),
    street VARCHAR(255),
    city VARCHAR(255),
    zip VARCHAR(255)
);
